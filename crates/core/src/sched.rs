//! Event-driven wakeup/select scheduler state.
//!
//! The scan scheduler the core shipped with rebuilt, heap-allocated and
//! sorted a `Vec` of every reservation-station entry and re-polled source
//! readiness on every waiting uop, every cycle — O(RS) work per cycle even
//! when nothing woke up. Real wakeup/select hardware is event-driven: a
//! completing uop broadcasts its destination tag and wakes exactly the
//! entries waiting on it. This module is that design:
//!
//! * **Waiter lists (the scoreboard):** one list per physical register,
//!   holding the `(seq, uid)` of every dispatched uop that had that register
//!   as a not-yet-ready source at rename. The completion stage drains the
//!   destination register's list; a woken uop whose sources are now all
//!   ready enters the ready queue.
//! * **Per-(criticality, port class) ready heaps:** eight min-heaps keyed by
//!   sequence number, one per port class (int, fp, load, store) for critical
//!   uops and one per class for the rest. Select drains the critical heaps
//!   before the regular ones (§3.5) and, within a criticality, pops the
//!   oldest head among the classes that *still have a free port this
//!   cycle*. A class whose ports are spent is never popped, so select costs
//!   O(uops issued) rather than O(ready queue): when the MSHRs are saturated
//!   and the load ports go to rejected retries, the waiting loads stay in
//!   their heap instead of being popped and re-pushed every cycle.
//! * **One merged order across classes:** the heads are merged rather than
//!   each class drained on its own, because execution within one cycle is
//!   order-sensitive across classes. Loads and stores must leave oldest-first
//!   relative to each other — store-to-load forwarding, `check_violation`,
//!   the memory-dependence wait and MSHR admission all see the stores and
//!   loads issued earlier in the same cycle — and when a branch and a
//!   store's ordering violation raise flushes with the same target, the one
//!   raised first wins. Merging at most four heap heads keeps the reference
//!   scan's exact visit order at constant cost per pop.
//! * **Lazy invalidation:** flushes never walk the scheduler. Stale entries
//!   (flushed uops, or re-used sequence numbers) are dropped at wake/select
//!   time by validating `(seq, uid)` against the instruction pool. This
//!   keeps the flush path O(flushed work) and the steady state
//!   allocation-free — every buffer here is reused, never rebuilt.
//!
//! Select-order equivalence with the reference scan (critical-first, then
//! ascending seq, skipping not-ready entries and entries whose port class
//! is spent) is proven by the scheduler-equivalence suite in `cdf-sim`:
//! both schedulers produce bit-identical `CoreStats` and retirement digests
//! on every mechanism.

use crate::rs::{PortBudget, PortClass};
use crate::types::PhysReg;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduler token: the sequence number and dispatch uid of one uop. The
/// uid guards against sequence-number reuse after flushes — a token is only
/// acted on if the pool still holds the same dispatch.
pub(crate) type Token = (u64, u64);

/// Event-driven wakeup/select state (see the [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct Scheduler {
    /// Per-physical-register waiter lists. Indexed by `PhysReg.0`.
    waiters: Vec<Vec<Token>>,
    /// Ready uops, oldest (smallest seq) first, indexed by
    /// `[critical as usize][PortClass as usize]`.
    ready: [[BinaryHeap<Reverse<Token>>; 4]; 2],
    /// Tokens popped this cycle that must be retried next cycle (an execute
    /// attempt that left the uop waiting: MSHR rejection, store-forward data
    /// stall, memory-dependence wait).
    deferred: Vec<(bool, PortClass, Token)>,
}

impl Scheduler {
    /// Creates scheduler state for a PRF of `phys_regs` registers.
    pub fn new(phys_regs: usize) -> Scheduler {
        Scheduler {
            waiters: vec![Vec::new(); phys_regs],
            ready: Default::default(),
            deferred: Vec::new(),
        }
    }

    /// Registers `token` as waiting on `p` becoming ready.
    pub fn add_waiter(&mut self, p: PhysReg, token: Token) {
        self.waiters[p.0 as usize].push(token);
    }

    /// Moves the waiter list of `p` into `buf` (cleared first). The list
    /// keeps its capacity for reuse; the caller validates each token and
    /// re-enqueues the genuinely ready ones.
    pub fn drain_waiters(&mut self, p: PhysReg, buf: &mut Vec<Token>) {
        buf.clear();
        buf.append(&mut self.waiters[p.0 as usize]);
    }

    /// Enqueues a ready uop for selection.
    pub fn enqueue_ready(&mut self, critical: bool, class: PortClass, token: Token) {
        self.ready[critical as usize][class as usize].push(Reverse(token));
    }

    /// Pops the oldest ready token of the given criticality among the port
    /// classes that still have a free port in `ports`. Classes without one
    /// are left untouched.
    pub fn pop_ready(&mut self, critical: bool, ports: &PortBudget) -> Option<(PortClass, Token)> {
        let heaps = &mut self.ready[critical as usize];
        let (_, class) = PortClass::ALL
            .into_iter()
            .filter(|&c| ports.has(c))
            .filter_map(|c| heaps[c as usize].peek().map(|&Reverse(t)| (t, c)))
            .min_by_key(|&(t, _)| t)?;
        heaps[class as usize].pop().map(|Reverse(t)| (class, t))
    }

    /// Holds a popped token for retry next cycle (it stays selected-order
    /// stable: re-insertion into the seq-keyed heap restores its position).
    pub fn defer(&mut self, critical: bool, class: PortClass, token: Token) {
        self.deferred.push((critical, class, token));
    }

    /// Returns every deferred token to its own ready heap (end of select).
    pub fn requeue_deferred(&mut self) {
        while let Some((critical, class, token)) = self.deferred.pop() {
            self.enqueue_ready(critical, class, token);
        }
    }

    /// Number of queued-ready tokens of one heap (stale tokens included
    /// until popped).
    #[cfg(test)]
    pub fn ready_len(&self, critical: bool, class: PortClass) -> usize {
        self.ready[critical as usize][class as usize].len()
    }

    /// Number of registered waiter tokens across all registers.
    #[cfg(test)]
    pub fn waiter_len(&self) -> usize {
        self.waiters.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PortClass::*;

    fn ports(int: u32, fp: u32, load: u32, store: u32) -> PortBudget {
        PortBudget {
            int,
            fp,
            load,
            store,
        }
    }

    /// Pops every selectable token of one criticality the way the core
    /// does: take a port per pop, stop when nothing selectable is left.
    fn drain(s: &mut Scheduler, critical: bool, p: &mut PortBudget) -> Vec<(PortClass, Token)> {
        let mut out = Vec::new();
        while let Some((class, t)) = s.pop_ready(critical, p) {
            assert!(p.take(class), "popped a class without a free port");
            out.push((class, t));
        }
        out
    }

    #[test]
    fn select_is_oldest_first_with_critical_priority() {
        let mut s = Scheduler::new(8);
        s.enqueue_ready(false, Int, (5, 50));
        s.enqueue_ready(true, Fp, (9, 90));
        s.enqueue_ready(false, Load, (3, 30));
        s.enqueue_ready(true, Int, (7, 70));
        let mut p = ports(4, 4, 4, 4);
        assert_eq!(drain(&mut s, true, &mut p), [(Int, (7, 70)), (Fp, (9, 90))]);
        assert_eq!(
            drain(&mut s, false, &mut p),
            [(Load, (3, 30)), (Int, (5, 50))]
        );
    }

    #[test]
    fn a_class_is_not_popped_once_its_ports_are_spent() {
        let mut s = Scheduler::new(8);
        for seq in 1..=4 {
            s.enqueue_ready(false, Load, (seq, seq));
        }
        s.enqueue_ready(false, Int, (10, 10));
        s.enqueue_ready(false, Int, (11, 11));
        let mut p = ports(1, 0, 2, 0);
        assert_eq!(
            drain(&mut s, false, &mut p),
            [(Load, (1, 1)), (Load, (2, 2)), (Int, (10, 10))]
        );
        assert_eq!(s.ready_len(false, Load), 2, "younger loads stay queued");
        assert_eq!(s.ready_len(false, Int), 1);
        // A class with no ports at all is never touched.
        s.enqueue_ready(false, Fp, (0, 0));
        assert_eq!(s.pop_ready(false, &ports(0, 0, 1, 0)), Some((Load, (3, 3))));
        assert_eq!(s.ready_len(false, Fp), 1);
    }

    #[test]
    fn loads_and_stores_leave_in_ascending_seq_order() {
        let mut s = Scheduler::new(8);
        for (class, seq) in [
            (Store, 8),
            (Load, 3),
            (Store, 2),
            (Load, 9),
            (Load, 5),
            (Store, 6),
        ] {
            s.enqueue_ready(false, class, (seq, seq));
        }
        let order: Vec<u64> = drain(&mut s, false, &mut ports(0, 0, 8, 8))
            .into_iter()
            .map(|(_, (seq, _))| seq)
            .collect();
        assert_eq!(order, [2, 3, 5, 6, 8, 9]);
        // Once the store ports are spent the loads keep their own order.
        for (class, seq) in [(Store, 1), (Load, 4), (Store, 2), (Load, 3)] {
            s.enqueue_ready(false, class, (seq, seq));
        }
        let order: Vec<(PortClass, u64)> = drain(&mut s, false, &mut ports(0, 0, 2, 1))
            .into_iter()
            .map(|(c, (seq, _))| (c, seq))
            .collect();
        assert_eq!(order, [(Store, 1), (Load, 3), (Load, 4)]);
    }

    #[test]
    fn stale_tokens_are_still_dropped() {
        // A flushed uop's token and a post-flush reuse of its seq are both
        // queued; the scheduler hands both back and the caller's
        // (seq, uid) validation drops the stale one. Nothing is lost and
        // the stale token does not come back.
        let mut s = Scheduler::new(8);
        s.enqueue_ready(false, Int, (4, 40)); // stale: uid 40 was flushed
        s.enqueue_ready(false, Int, (4, 41)); // the live reuse of seq 4
        let live = |t: Token| t.1 != 40;
        let mut p = ports(2, 0, 0, 0);
        let mut issued = Vec::new();
        while let Some((class, t)) = s.pop_ready(false, &p) {
            if live(t) {
                p.take(class);
                issued.push(t);
            }
        }
        assert_eq!(issued, [(4, 41)]);
        assert_eq!(
            s.ready_len(false, Int),
            0,
            "stale token dropped, not requeued"
        );
    }

    #[test]
    fn wakeup_drains_exactly_the_written_register() {
        let mut s = Scheduler::new(4);
        s.add_waiter(PhysReg(1), (10, 1));
        s.add_waiter(PhysReg(1), (11, 2));
        s.add_waiter(PhysReg(2), (12, 3));
        let mut buf = Vec::new();
        s.drain_waiters(PhysReg(1), &mut buf);
        assert_eq!(buf, vec![(10, 1), (11, 2)]);
        assert_eq!(s.waiter_len(), 1, "p2's waiter is untouched");
        s.drain_waiters(PhysReg(1), &mut buf);
        assert!(buf.is_empty(), "a second drain finds nothing");
    }

    #[test]
    fn deferred_tokens_return_to_their_own_class_heap() {
        let mut s = Scheduler::new(4);
        s.enqueue_ready(false, Load, (4, 1));
        s.enqueue_ready(true, Load, (6, 3));
        s.enqueue_ready(false, Store, (2, 2));
        let p = ports(0, 0, 1, 1);
        for crit in [true, false] {
            while let Some((class, t)) = s.pop_ready(crit, &p) {
                s.defer(crit, class, t);
            }
        }
        assert_eq!(s.ready_len(false, Load) + s.ready_len(false, Store), 0);
        s.requeue_deferred();
        assert_eq!(s.ready_len(true, Load), 1);
        assert_eq!(s.ready_len(false, Load), 1);
        assert_eq!(s.ready_len(false, Store), 1);
        assert_eq!(s.pop_ready(true, &p), Some((Load, (6, 3))));
        assert_eq!(
            s.pop_ready(false, &p),
            Some((Store, (2, 2))),
            "oldest-first restored"
        );
        assert_eq!(s.pop_ready(false, &p), Some((Load, (4, 1))));
    }
}
