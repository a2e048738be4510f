//! Return address stack with checkpoint handles for squash recovery.

use std::collections::VecDeque;

/// A handle to a past RAS state, taken with [`Ras::checkpoint`].
///
/// The core takes one for every fetched instruction, but the stack
/// changes only at calls and returns, so a handle is a position in the
/// stack's undo log rather than a copy of the stack. It stays valid until
/// the stack is [retired](Ras::retire) past it, restored to an older
/// handle, or [reset](Ras::reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RasCheckpoint(u64);

/// The stack proper: a fixed ring of return addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stack {
    entries: [u64; Ras::DEPTH],
    top: usize,
    len: usize,
}

/// What one push or pop changed: the ring pointer and length before it,
/// and the old value of the slot just above `top` (the slot a push
/// overwrites; a pop leaves it as it was, so restoring it is a no-op).
#[derive(Debug, Clone, Copy)]
struct Undo {
    top: usize,
    len: usize,
    slot: u64,
}

/// A circular return-address stack.
///
/// Every push and pop appends an undo record, so [`Ras::restore`] can
/// rewind to any live [`RasCheckpoint`] exactly — including entries a
/// push overwrote after the ring wrapped. Records older than the oldest
/// in-flight instruction are dropped by [`Ras::retire`] at commit, which
/// bounds the log by the number of instructions in flight.
///
/// # Examples
///
/// ```
/// use r3dla_bpred::Ras;
/// let mut ras = Ras::new();
/// ras.push(0x104);
/// let before_call = ras.checkpoint();
/// ras.push(0x208);
/// assert_eq!(ras.pop(), Some(0x208));
/// ras.pop();
/// ras.restore(before_call);
/// assert_eq!(ras.pop(), Some(0x104));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Ras {
    stack: Stack,
    /// Undo records of the pushes and pops since the oldest live
    /// checkpoint, oldest first.
    log: VecDeque<Undo>,
    /// Log position of `log[0]`.
    base: u64,
}

impl Default for Ras {
    fn default() -> Self {
        Self::new()
    }
}

impl Ras {
    /// Stack depth (paper Table I: 32-entry RAS).
    pub const DEPTH: usize = 32;

    /// Creates an empty stack.
    pub fn new() -> Self {
        Self {
            stack: Stack {
                entries: [0; Self::DEPTH],
                top: 0,
                len: 0,
            },
            log: VecDeque::new(),
            base: 0,
        }
    }

    fn record(&mut self) {
        let s = &self.stack;
        self.log.push_back(Undo {
            top: s.top,
            len: s.len,
            slot: s.entries[(s.top + 1) % Self::DEPTH],
        });
    }

    /// Pushes a return address (a call was fetched). Overwrites the oldest
    /// entry when full, as hardware does.
    pub fn push(&mut self, addr: u64) {
        self.record();
        let s = &mut self.stack;
        s.top = (s.top + 1) % Self::DEPTH;
        s.entries[s.top] = addr;
        if s.len < Self::DEPTH {
            s.len += 1;
        }
    }

    /// Pops the predicted return address (a return was fetched).
    pub fn pop(&mut self) -> Option<u64> {
        if self.stack.len == 0 {
            return None;
        }
        self.record();
        let s = &mut self.stack;
        let addr = s.entries[s.top];
        s.top = (s.top + Self::DEPTH - 1) % Self::DEPTH;
        s.len -= 1;
        Some(addr)
    }

    /// A handle to the current state, for a later [`Ras::restore`].
    pub fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint(self.base + self.log.len() as u64)
    }

    /// Rewinds the stack to the state it had when `ckpt` was taken.
    /// Checkpoints taken after `ckpt` become invalid.
    ///
    /// # Panics
    ///
    /// Panics if `ckpt` was retired or lies ahead of the current state.
    pub fn restore(&mut self, ckpt: RasCheckpoint) {
        assert!(
            ckpt.0 >= self.base && ckpt <= self.checkpoint(),
            "RAS checkpoint {} outside the live log [{}, {}]",
            ckpt.0,
            self.base,
            self.checkpoint().0,
        );
        let keep = (ckpt.0 - self.base) as usize;
        while self.log.len() > keep {
            let u = self.log.pop_back().expect("len > keep");
            let s = &mut self.stack;
            s.entries[(u.top + 1) % Self::DEPTH] = u.slot;
            s.top = u.top;
            s.len = u.len;
        }
    }

    /// Drops the undo records older than `ckpt`: no restore will target
    /// a state before it (the instruction that took it is retiring).
    pub fn retire(&mut self, ckpt: RasCheckpoint) {
        while self.base < ckpt.0 && self.log.pop_front().is_some() {
            self.base += 1;
        }
    }

    /// Empties the stack and invalidates every checkpoint (a pipeline
    /// reboot).
    pub fn reset(&mut self) {
        self.stack = Self::new().stack;
        self.log.clear();
        self.base = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lifo_order() {
        let mut r = Ras::new();
        for a in [1u64, 2, 3] {
            r.push(a);
        }
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_wraps_keeping_newest() {
        let mut r = Ras::new();
        for a in 0..(Ras::DEPTH as u64 + 4) {
            r.push(a);
        }
        // Newest survive.
        assert_eq!(r.pop(), Some(Ras::DEPTH as u64 + 3));
        assert_eq!(r.pop(), Some(Ras::DEPTH as u64 + 2));
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut r = Ras::new();
        r.push(10);
        r.push(20);
        let ckpt = r.checkpoint();
        r.pop();
        r.push(99);
        r.push(98);
        r.restore(ckpt);
        assert_eq!(r.pop(), Some(20));
        assert_eq!(r.pop(), Some(10));
    }

    #[test]
    fn deep_nesting_round_trip() {
        let mut r = Ras::new();
        for a in 0..Ras::DEPTH as u64 {
            r.push(a);
        }
        for a in (0..Ras::DEPTH as u64).rev() {
            assert_eq!(r.pop(), Some(a));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn restore_undoes_wraparound_overwrites() {
        let mut r = Ras::new();
        for a in 0..Ras::DEPTH as u64 {
            r.push(a);
        }
        let full = r.stack;
        let ckpt = r.checkpoint();
        // Wrap twice round the ring, overwriting every entry.
        for a in 100..100 + 2 * Ras::DEPTH as u64 {
            r.push(a);
        }
        r.restore(ckpt);
        assert_eq!(r.stack, full);
        for a in (0..Ras::DEPTH as u64).rev() {
            assert_eq!(r.pop(), Some(a));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn retire_and_reset_bound_the_log() {
        let mut r = Ras::new();
        r.push(1);
        let ckpt = r.checkpoint();
        r.push(2);
        r.retire(ckpt);
        assert_eq!(r.log.len(), 1);
        r.restore(ckpt);
        assert_eq!(r.pop(), Some(1));
        r.reset();
        assert!(r.log.is_empty());
        assert_eq!(r.stack, Ras::new().stack);
        assert_eq!(r.checkpoint(), RasCheckpoint(0));
    }

    #[test]
    fn squash_at_a_return_restores_the_pre_pop_state() {
        let mut r = Ras::new();
        r.push(0x104);
        r.push(0x208);
        let at_ret = r.checkpoint();
        assert_eq!(r.pop(), Some(0x208));
        r.push(0x30c); // wrong-path call after the return
        r.restore(at_ret);
        assert_eq!(r.pop(), Some(0x208));
        assert_eq!(r.pop(), Some(0x104));
    }

    /// One fetched instruction of the property test's pipeline model.
    struct InFlight {
        ckpt: RasCheckpoint,
        /// Reference: full copies of the stack before and after fetch.
        before: Stack,
        after: Stack,
        /// The return address a call pushed.
        call: Option<u64>,
        ret: bool,
    }

    proptest! {
        /// Drives the RAS the way the core does — a checkpoint per
        /// fetched instruction, pushes at calls, pops at returns, a
        /// squash that restores a victim's checkpoint and re-pushes if it
        /// was a call, retirement at commit — and checks every restore
        /// against full copies of the stack taken at fetch.
        #[test]
        fn handle_restore_matches_full_copy(
            ops in prop::collection::vec(0u8..16, 1..600),
            picks in prop::collection::vec(any::<u16>(), 600..601),
        ) {
            let mut ras = Ras::new();
            let mut in_flight: VecDeque<InFlight> = VecDeque::new();
            for (i, (&op, &pick)) in ops.iter().zip(&picks).enumerate() {
                match op {
                    // Fetch: calls outnumber returns so the stack keeps
                    // wrapping past its 32 entries.
                    0..=10 => {
                        let ckpt = ras.checkpoint();
                        let before = ras.stack;
                        let call = (op <= 6).then_some(0x1000 + 4 * i as u64);
                        let ret = (7..=9).contains(&op);
                        if let Some(addr) = call {
                            ras.push(addr);
                        } else if ret {
                            ras.pop();
                        }
                        let after = ras.stack;
                        in_flight.push_back(InFlight { ckpt, before, after, call, ret });
                    }
                    // Squash at an in-flight instruction (a return, a
                    // call or neither): everything younger is dropped.
                    11 if !in_flight.is_empty() => {
                        let k = pick as usize % in_flight.len();
                        in_flight.truncate(k + 1);
                        let victim = in_flight.back().expect("k < len");
                        ras.restore(victim.ckpt);
                        prop_assert_eq!(ras.stack, victim.before);
                        if let Some(addr) = victim.call {
                            ras.push(addr);
                        }
                        // Back to just after the victim's fetch, except
                        // that a return is not popped again.
                        let expected = if victim.ret { victim.before } else { victim.after };
                        prop_assert_eq!(ras.stack, expected);
                    }
                    // Commit the oldest.
                    _ => {
                        if let Some(e) = in_flight.pop_front() {
                            ras.retire(e.ckpt);
                        }
                    }
                }
                prop_assert!(ras.log.len() <= in_flight.len() + 1);
            }
        }
    }
}
