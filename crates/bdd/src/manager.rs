//! The BDD manager: arena, unique table, ITE core and derived operators.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::node::{Node, Ref, Var, TERMINAL_VAR};
use crate::table::{ComputedTable, UniqueTable};

/// Error returned when a BDD operation cannot complete within its
/// resource envelope.
///
/// [`BddError::Capacity`] is the paper's `memory out`: Table 1 reports
/// it for the exact algorithm on large MCNC circuits. The other two
/// variants come from the cooperative governor ([`Bdd::set_deadline`],
/// [`Bdd::set_cancel_flag`]): node construction polls the wall-clock
/// deadline and the shared cancel flag and aborts with a clean error
/// instead of running away.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BddError {
    /// The configured node limit would be exceeded.
    Capacity {
        /// The node limit that was in force when the operation failed.
        limit: usize,
    },
    /// The wall-clock deadline passed during construction.
    Deadline,
    /// The shared cancel flag was raised during construction.
    Cancelled,
    /// The byte-accurate memory budget ([`Bdd::set_mem_limit`]) hit its
    /// hard watermark after in-place reclamation.
    MemoryOut,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::Capacity { limit } => {
                write!(f, "bdd node limit of {limit} nodes exceeded")
            }
            BddError::Deadline => write!(f, "bdd construction deadline exceeded"),
            BddError::Cancelled => write!(f, "bdd construction cancelled"),
            BddError::MemoryOut => write!(f, "memory budget exhausted"),
        }
    }
}

impl std::error::Error for BddError {}

/// Result alias for fallible BDD operations.
pub type BddResult<T> = Result<T, BddError>;

/// How many node creations happen between governor polls: deadline and
/// cancel-flag checks are amortized so the hot path stays branch-cheap.
const GOVERNOR_POLL_INTERVAL: u32 = 1024;

/// A shared-node, reduced, ordered BDD manager.
///
/// All functions live in one append-only arena; [`Ref`] handles index
/// into it. Because the diagrams are reduced and ordered, equal handles ⇔
/// equal functions. The variable order is the order variables are
/// created in, so a variable's index is its level (0 = topmost).
///
/// # Examples
///
/// ```
/// use xrta_bdd::Bdd;
///
/// let mut bdd = Bdd::new();
/// let x = bdd.fresh_var();
/// let y = bdd.fresh_var();
/// let fx = bdd.var(x);
/// let fy = bdd.var(y);
/// let f = bdd.and(fx, fy);
/// let g = bdd.not(f);
/// let h = bdd.nand(fx, fy);
/// assert_eq!(g, h); // canonical: same function, same handle
/// ```
pub struct Bdd {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    /// ITE computed table; negation shares it under the key `(f, ⊥, ⊤)`.
    /// Quantification, restriction and composition use per-call caches
    /// (their auxiliary arguments vary).
    computed: ComputedTable,
    /// Variables declared so far.
    var_count: u32,
    node_limit: usize,
    /// Wall-clock deadline after which node creation fails with
    /// [`BddError::Deadline`].
    deadline: Option<Instant>,
    /// Shared cooperative cancel flag; when raised, node creation fails
    /// with [`BddError::Cancelled`].
    cancel: Option<Arc<AtomicBool>>,
    /// Byte budget against the process-wide memory meter; `None`
    /// disables pressure checks (accounting still runs).
    mem_limit: Option<u64>,
    /// Bytes this manager last reported to the meter.
    mem_charged: u64,
    /// Countdown to the next governor poll (see
    /// [`GOVERNOR_POLL_INTERVAL`]).
    poll_countdown: u32,
}

impl Default for Bdd {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bdd")
            .field("vars", &self.var_count)
            .field("nodes", &self.nodes.len())
            .field("node_limit", &self.node_limit)
            .finish()
    }
}

impl Bdd {
    /// Creates an empty manager with a default node limit (64M nodes).
    pub fn new() -> Self {
        Self::with_node_limit(1 << 26)
    }

    /// Creates a manager that refuses to grow past `node_limit` nodes.
    ///
    /// Used to reproduce the paper's `memory out` rows deterministically.
    pub fn with_node_limit(node_limit: usize) -> Self {
        Bdd {
            nodes: vec![Node::terminal(), Node::terminal()],
            unique: UniqueTable::new(),
            computed: ComputedTable::new(),
            var_count: 0,
            node_limit,
            deadline: None,
            cancel: None,
            mem_limit: None,
            mem_charged: 0,
            poll_countdown: GOVERNOR_POLL_INTERVAL,
        }
    }

    /// A default manager whose computed table is held at `slots` slots:
    /// the reference the eviction differential compares against.
    #[cfg(test)]
    pub(crate) fn with_computed_slots(slots: usize) -> Self {
        let mut bdd = Self::new();
        bdd.computed = ComputedTable::held_at(slots);
        bdd
    }

    /// The configured node limit.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Changes the node limit (takes effect for future node creations).
    pub fn set_node_limit(&mut self, node_limit: usize) {
        self.node_limit = node_limit;
    }

    /// Arms (or disarms, with `None`) a wall-clock deadline: node
    /// creation past the deadline fails with [`BddError::Deadline`].
    /// Polled every `GOVERNOR_POLL_INTERVAL` (1024) node creations, so
    /// overshoot is bounded by one poll interval of work.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.poll_countdown = 0; // re-poll immediately with the new setting
    }

    /// Arms (or disarms, with `None`) a shared cooperative cancel flag:
    /// once the flag is raised, node creation fails with
    /// [`BddError::Cancelled`]. Same amortized polling as
    /// [`Bdd::set_deadline`].
    pub fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
        self.poll_countdown = 0;
    }

    /// Arms (or disarms, with `None`) a byte budget against the
    /// process-wide memory meter. The computed table grows with the
    /// arena only while the meter stays under the soft watermark (7/8 of
    /// the limit); past it the table is shed to its minimum, and at the
    /// hard watermark construction fails with [`BddError::MemoryOut`].
    /// Polled on the same amortized schedule as [`Bdd::set_deadline`].
    pub fn set_mem_limit(&mut self, limit: Option<u64>) {
        self.mem_limit = limit;
        self.poll_countdown = 0;
    }

    /// Estimated bytes behind this manager: arena and both tables, each
    /// at full capacity.
    fn mem_bytes_estimate(&self) -> u64 {
        let nodes = self.nodes.capacity() * std::mem::size_of::<Node>();
        (nodes + self.unique.bytes() + self.computed.bytes()) as u64
    }

    /// Re-states this manager's footprint on the meter.
    fn restate_memory(&mut self) {
        let mut charged = self.mem_charged;
        xrta_robust::mem::global().restate(
            xrta_robust::mem::Subsystem::Bdd,
            &mut charged,
            self.mem_bytes_estimate(),
        );
        self.mem_charged = charged;
    }

    /// Re-states this manager's footprint and sizes the computed table
    /// by the pressure of an armed limit: none → it follows the arena,
    /// stopping short of the soft watermark (a table that reached it
    /// would be shed at the next poll and regrown at the one after);
    /// soft → it is shed to its minimum (the unique table stays — it
    /// holds the diagram itself); hard → cooperative
    /// [`BddError::MemoryOut`].
    fn poll_memory(&mut self) -> BddResult<()> {
        use xrta_robust::mem::{self, Pressure};
        self.restate_memory();
        let meter = mem::global();
        let resized = match self.mem_limit.map(|limit| (limit, meter.pressure(limit))) {
            None => self.computed.follow(self.nodes.len(), usize::MAX),
            Some((limit, Pressure::None)) => {
                let room = mem::soft_watermark(limit).saturating_sub(meter.total());
                self.computed.follow(self.nodes.len(), room as usize)
            }
            Some((_, Pressure::Soft)) => self.computed.shed(),
            Some((_, Pressure::Hard)) => return Err(BddError::MemoryOut),
        };
        if resized {
            self.restate_memory();
        }
        Ok(())
    }

    /// Amortized governor check, called on the node-creation path and
    /// at the entry of the long cache-hit-heavy traversals
    /// (`isop`/`quant`), which can run for a long time
    /// without ever creating a node.
    #[inline]
    pub(crate) fn poll_governor(&mut self) -> BddResult<()> {
        if self.poll_countdown > 0 {
            self.poll_countdown -= 1;
            return Ok(());
        }
        self.poll_countdown = GOVERNOR_POLL_INTERVAL;
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(BddError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BddError::Deadline);
            }
        }
        self.poll_memory()
    }

    /// Number of nodes in the arena, including the two terminals. The
    /// arena only grows: nodes no root reaches any more stay until the
    /// manager is dropped.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes reachable from `roots` (including terminals).
    pub fn live_node_count(&self, roots: &[Ref]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = roots.iter().map(|r| r.0).collect();
        let mut count = 0usize;
        while let Some(i) = stack.pop() {
            if seen[i as usize] {
                continue;
            }
            seen[i as usize] = true;
            count += 1;
            let n = self.nodes[i as usize];
            if !n.is_terminal() {
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        count
    }

    /// Number of decision nodes in the diagram rooted at `f` (excluding
    /// terminals) — the conventional per-function size metric.
    pub fn size_of(&self, f: Ref) -> usize {
        let mut seen = crate::hash::FxHashSet::default();
        let mut stack = vec![f.0];
        let mut count = 0usize;
        while let Some(i) = stack.pop() {
            if i <= 1 || !seen.insert(i) {
                continue;
            }
            count += 1;
            let n = self.nodes[i as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.var_count as usize
    }

    /// Declares a new variable, placed at the bottom of the order.
    pub fn fresh_var(&mut self) -> Var {
        let v = self.var_count;
        self.var_count += 1;
        Var(v)
    }

    /// Declares `n` new variables.
    pub fn fresh_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.fresh_var()).collect()
    }

    /// All declared variables, topmost level first (creation order).
    pub fn vars(&self) -> Vec<Var> {
        (0..self.var_count).map(Var).collect()
    }

    /// Fallible form of [`Bdd::var`].
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Capacity`] if the node limit would be exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this manager.
    pub fn try_var(&mut self, v: Var) -> BddResult<Ref> {
        self.try_literal(v, true)
    }

    /// Fallible form of [`Bdd::nvar`].
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Capacity`] if the node limit would be exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this manager.
    pub fn try_nvar(&mut self, v: Var) -> BddResult<Ref> {
        self.try_literal(v, false)
    }

    fn try_literal(&mut self, v: Var, positive: bool) -> BddResult<Ref> {
        assert!(
            v.0 < self.var_count,
            "variable {v} not declared on this manager"
        );
        let (lo, hi) = if positive {
            (Ref::FALSE, Ref::TRUE)
        } else {
            (Ref::TRUE, Ref::FALSE)
        };
        self.mk(v.0, lo, hi)
    }

    /// The positive literal (single-variable function) for `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this manager or the node limit is
    /// exceeded.
    pub fn var(&mut self, v: Var) -> Ref {
        self.try_var(v).expect("bdd node limit exceeded")
    }

    /// The negative literal `¬v`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Bdd::var`].
    pub fn nvar(&mut self, v: Var) -> Ref {
        self.try_nvar(v).expect("bdd node limit exceeded")
    }

    /// A literal: `v` if `positive`, else `¬v`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Bdd::var`].
    pub fn literal(&mut self, v: Var, positive: bool) -> Ref {
        self.try_literal(v, positive)
            .expect("bdd node limit exceeded")
    }

    /// Constant function for `value`.
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            Ref::TRUE
        } else {
            Ref::FALSE
        }
    }

    #[inline]
    pub(crate) fn node(&self, r: u32) -> Node {
        self.nodes[r as usize]
    }

    /// The decision variable at the root of `f`, if `f` is not constant.
    pub fn root_var(&self, f: Ref) -> Option<Var> {
        let n = self.node(f.0);
        if n.is_terminal() {
            None
        } else {
            Some(Var(n.var))
        }
    }

    /// Level of the root of `f`: its variable's index, or
    /// `TERMINAL_VAR` (`u32::MAX`, below every level) for constants.
    #[inline]
    pub(crate) fn level(&self, r: u32) -> u32 {
        self.nodes[r as usize].var
    }

    /// Hash-consing constructor: `if var then hi else lo`.
    pub(crate) fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> BddResult<Ref> {
        if lo == hi {
            return Ok(lo);
        }
        debug_assert!(self.level(lo.0) > var);
        debug_assert!(self.level(hi.0) > var);
        let key = Node {
            var,
            lo: lo.0,
            hi: hi.0,
        };
        if let Some(idx) = self.unique.find(&self.nodes, key) {
            return Ok(Ref(idx));
        }
        // Fault-injection site on the allocation slow path: `exhaust`
        // forges a capacity failure, `err` a deadline. No-op unless a
        // failpoint schedule is armed (see xrta-robust).
        match xrta_robust::failpoint::eval("bdd::mk") {
            Some(xrta_robust::failpoint::Outcome::Exhausted) => {
                return Err(BddError::Capacity {
                    limit: self.node_limit,
                })
            }
            Some(xrta_robust::failpoint::Outcome::ReturnError) => return Err(BddError::Deadline),
            None => {}
        }
        self.poll_governor()?;
        if self.nodes.len() >= self.node_limit {
            return Err(BddError::Capacity {
                limit: self.node_limit,
            });
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(key);
        self.unique.insert(key, idx);
        Ok(Ref(idx))
    }

    /// Cofactors of `f` with respect to the variable at level `level`.
    ///
    /// If the root of `f` sits below `level`, both cofactors are `f`.
    #[inline]
    pub(crate) fn cofactors_at_level(&self, f: Ref, level: u32) -> (Ref, Ref) {
        debug_assert_ne!(level, TERMINAL_VAR);
        let n = self.node(f.0);
        if n.var == level {
            (Ref(n.lo), Ref(n.hi))
        } else {
            (f, f)
        }
    }

    /// If-then-else: `ite(f, g, h) = f·g + ¬f·h`. Fallible core.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Capacity`] if the node limit would be exceeded.
    pub fn try_ite(&mut self, f: Ref, g: Ref, h: Ref) -> BddResult<Ref> {
        // Terminal cases.
        if f.is_true() {
            return Ok(g);
        }
        if f.is_false() {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g.is_true() && h.is_false() {
            return Ok(f);
        }
        if let Some(r) = self.computed.get(f.0, g.0, h.0) {
            return Ok(Ref(r));
        }
        let lf = self.level(f.0);
        let lg = self.level(g.0);
        let lh = self.level(h.0);
        let top = lf.min(lg).min(lh);
        let (f0, f1) = self.cofactors_at_level(f, top);
        let (g0, g1) = self.cofactors_at_level(g, top);
        let (h0, h1) = self.cofactors_at_level(h, top);
        let t = self.try_ite(f1, g1, h1)?;
        let e = self.try_ite(f0, g0, h0)?;
        let r = self.mk(top, e, t)?;
        self.computed.insert(f.0, g.0, h.0, r.0);
        Ok(r)
    }

    /// If-then-else. See [`Bdd::try_ite`] for a non-panicking variant.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        self.try_ite(f, g, h).expect("bdd node limit exceeded")
    }

    /// Negation `¬f`. Fallible core.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Capacity`] if the node limit would be exceeded.
    pub fn try_not(&mut self, f: Ref) -> BddResult<Ref> {
        if f.is_true() {
            return Ok(Ref::FALSE);
        }
        if f.is_false() {
            return Ok(Ref::TRUE);
        }
        // ¬f = ite(f, ⊥, ⊤): negation shares the ITE entry.
        if let Some(r) = self.computed.get(f.0, Ref::FALSE.0, Ref::TRUE.0) {
            return Ok(Ref(r));
        }
        let n = self.node(f.0);
        let lo = self.try_not(Ref(n.lo))?;
        let hi = self.try_not(Ref(n.hi))?;
        let r = self.mk(n.var, lo, hi)?;
        self.computed.insert(f.0, Ref::FALSE.0, Ref::TRUE.0, r.0);
        Ok(r)
    }

    /// Negation `¬f`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.try_not(f).expect("bdd node limit exceeded")
    }

    /// Conjunction, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Capacity`] if the node limit would be exceeded.
    pub fn try_and(&mut self, f: Ref, g: Ref) -> BddResult<Ref> {
        self.try_ite(f, g, Ref::FALSE)
    }

    /// Disjunction, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Capacity`] if the node limit would be exceeded.
    pub fn try_or(&mut self, f: Ref, g: Ref) -> BddResult<Ref> {
        self.try_ite(f, Ref::TRUE, g)
    }

    /// Exclusive or, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Capacity`] if the node limit would be exceeded.
    pub fn try_xor(&mut self, f: Ref, g: Ref) -> BddResult<Ref> {
        let ng = self.try_not(g)?;
        self.try_ite(f, ng, g)
    }

    /// Conjunction `f·g`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_and(f, g).expect("bdd node limit exceeded")
    }

    /// Disjunction `f + g`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_or(f, g).expect("bdd node limit exceeded")
    }

    /// Exclusive or `f ⊕ g`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_xor(f, g).expect("bdd node limit exceeded")
    }

    /// Equivalence `f ≡ g`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Implication `f → g`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::TRUE)
    }

    /// Negated conjunction.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn nand(&mut self, f: Ref, g: Ref) -> Ref {
        let a = self.and(f, g);
        self.not(a)
    }

    /// Negated disjunction.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn nor(&mut self, f: Ref, g: Ref) -> Ref {
        let a = self.or(f, g);
        self.not(a)
    }

    /// Exclusive nor.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn xnor(&mut self, f: Ref, g: Ref) -> Ref {
        self.iff(f, g)
    }

    /// Conjunction of many functions (true for the empty set).
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, fs: I) -> Ref {
        let mut acc = Ref::TRUE;
        for f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of many functions (false for the empty set).
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, fs: I) -> Ref {
        let mut acc = Ref::FALSE;
        for f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Is `f ⊆ g` as sets of satisfying assignments (i.e. `f → g` valid)?
    pub fn is_subset(&mut self, f: Ref, g: Ref) -> bool {
        let ng = self.not(g);
        self.and(f, ng).is_false()
    }

    /// Evaluates `f` under a total assignment indexed by variable index.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the index of a variable
    /// actually tested on the evaluation path.
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        let mut cur = f.0;
        loop {
            let n = self.nodes[cur as usize];
            if n.is_terminal() {
                return cur == Ref::TRUE.0;
            }
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// Clears the computed table (the unique table is kept).
    pub fn clear_caches(&mut self) {
        self.computed.clear();
    }

    /// Sanity check: the unique table registers every decision node
    /// once, each reachable by probing from its key's home slot, and
    /// every node's children are strictly below it. Used by tests;
    /// linear in arena size.
    pub fn check_invariants(&self) -> bool {
        self.unique.len() == self.nodes.len() - 2
            && self.unique.is_consistent(&self.nodes)
            && self.nodes[2..]
                .iter()
                .all(|n| self.level(n.lo) > n.var && self.level(n.hi) > n.var)
    }
}

impl Drop for Bdd {
    fn drop(&mut self) {
        xrta_robust::mem::global().release(xrta_robust::mem::Subsystem::Bdd, self.mem_charged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Bdd, Ref, Ref, Ref) {
        let mut bdd = Bdd::new();
        let x = bdd.fresh_var();
        let y = bdd.fresh_var();
        let z = bdd.fresh_var();
        let (fx, fy, fz) = (bdd.var(x), bdd.var(y), bdd.var(z));
        (bdd, fx, fy, fz)
    }

    #[test]
    fn constants() {
        let bdd = Bdd::new();
        assert_eq!(bdd.constant(true), Ref::TRUE);
        assert_eq!(bdd.constant(false), Ref::FALSE);
    }

    #[test]
    fn canonical_hash_consing() {
        let (mut bdd, x, y, _) = setup();
        let a = bdd.and(x, y);
        let b = bdd.and(y, x);
        assert_eq!(a, b);
        let c = bdd.ite(x, y, Ref::FALSE);
        assert_eq!(a, c);
    }

    #[test]
    fn de_morgan() {
        let (mut bdd, x, y, _) = setup();
        let a = bdd.and(x, y);
        let na = bdd.not(a);
        let nx = bdd.not(x);
        let ny = bdd.not(y);
        let b = bdd.or(nx, ny);
        assert_eq!(na, b);
    }

    #[test]
    fn double_negation() {
        let (mut bdd, x, y, z) = setup();
        let f = bdd.ite(x, y, z);
        let nf = bdd.not(f);
        let nnf = bdd.not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn xor_xnor_complementary() {
        let (mut bdd, x, y, _) = setup();
        let a = bdd.xor(x, y);
        let b = bdd.xnor(x, y);
        let na = bdd.not(a);
        assert_eq!(na, b);
    }

    #[test]
    fn implication_truth_table() {
        let (mut bdd, x, y, _) = setup();
        let f = bdd.implies(x, y);
        assert!(bdd.eval(f, &[false, false, false]));
        assert!(bdd.eval(f, &[false, true, false]));
        assert!(!bdd.eval(f, &[true, false, false]));
        assert!(bdd.eval(f, &[true, true, false]));
    }

    #[test]
    fn eval_matches_semantics() {
        let (mut bdd, x, y, z) = setup();
        let f = bdd.ite(x, y, z); // x?y:z
        for bits in 0..8u32 {
            let a = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let expect = if a[0] { a[1] } else { a[2] };
            assert_eq!(bdd.eval(f, &a), expect);
        }
    }

    #[test]
    fn and_or_all() {
        let (mut bdd, x, y, z) = setup();
        let f = bdd.and_all([x, y, z]);
        let g = {
            let t = bdd.and(x, y);
            bdd.and(t, z)
        };
        assert_eq!(f, g);
        let f = bdd.or_all([x, y, z]);
        let g = {
            let t = bdd.or(x, y);
            bdd.or(t, z)
        };
        assert_eq!(f, g);
        assert_eq!(bdd.and_all([]), Ref::TRUE);
        assert_eq!(bdd.or_all([]), Ref::FALSE);
    }

    #[test]
    fn subset_checks() {
        let (mut bdd, x, y, _) = setup();
        let a = bdd.and(x, y);
        assert!(bdd.is_subset(a, x));
        assert!(!bdd.is_subset(x, a));
        assert!(bdd.is_subset(Ref::FALSE, a));
        assert!(bdd.is_subset(a, Ref::TRUE));
    }

    #[test]
    fn node_limit_enforced() {
        let mut bdd = Bdd::with_node_limit(8);
        let vars = bdd.fresh_vars(16);
        let mut acc = Ref::TRUE;
        let mut failed = false;
        for v in vars {
            let lit = match bdd.mk(v.0, Ref::FALSE, Ref::TRUE) {
                Ok(l) => l,
                Err(_) => {
                    failed = true;
                    break;
                }
            };
            match bdd.try_and(acc, lit) {
                Ok(r) => acc = r,
                Err(e) => {
                    assert_eq!(e, BddError::Capacity { limit: 8 });
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "tiny node limit must trip");
    }

    #[test]
    fn governor_deadline_stops_construction() {
        let mut bdd = Bdd::new();
        let vars = bdd.fresh_vars(24);
        bdd.set_deadline(Some(std::time::Instant::now()));
        let mut err = None;
        let mut acc = Ref::TRUE;
        for v in vars {
            let step = bdd.try_var(v).and_then(|l| bdd.try_xor(acc, l));
            match step {
                Ok(r) => acc = r,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(BddError::Deadline));
        // Disarming the deadline makes the manager usable again.
        bdd.set_deadline(None);
        let v = bdd.fresh_var();
        assert!(bdd.try_var(v).is_ok());
    }

    #[test]
    fn governor_cancel_flag_stops_construction() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut bdd = Bdd::new();
        let vars = bdd.fresh_vars(8);
        let flag = Arc::new(AtomicBool::new(false));
        bdd.set_cancel_flag(Some(flag.clone()));
        // Not raised yet: construction proceeds.
        let a = bdd.try_var(vars[0]).unwrap();
        let b = bdd.try_var(vars[1]).unwrap();
        assert!(bdd.try_and(a, b).is_ok());
        // Raise the flag: the next fresh node creation fails.
        flag.store(true, Ordering::Relaxed);
        bdd.set_cancel_flag(Some(flag)); // reset the poll countdown
        let r = bdd.try_var(vars[2]).and_then(|c| {
            let na = bdd.try_not(a)?;
            bdd.try_and(na, c)
        });
        assert_eq!(r, Err(BddError::Cancelled));
    }

    #[test]
    fn live_node_count_counts_reachable() {
        let (mut bdd, x, y, _) = setup();
        let f = bdd.and(x, y);
        // f, x-node, y-node... reachable: f node, the y node below, 2 terminals.
        let live = bdd.live_node_count(&[f]);
        assert_eq!(live, 4);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn foreign_var_panics() {
        let mut bdd = Bdd::new();
        let _ = bdd.var(Var::from_index(3));
    }

    #[test]
    fn governor_mem_limit_stops_construction() {
        let mut bdd = Bdd::new();
        let vars = bdd.fresh_vars(24);
        // One byte: the first accounting poll is already past the hard
        // watermark, whatever the rest of the process has charged.
        bdd.set_mem_limit(Some(1));
        let mut err = None;
        let mut acc = Ref::TRUE;
        for v in vars {
            let step = bdd.try_var(v).and_then(|l| bdd.try_xor(acc, l));
            match step {
                Ok(r) => acc = r,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(BddError::MemoryOut));
        // Disarming the limit makes the manager usable again.
        bdd.set_mem_limit(None);
        let v = bdd.fresh_var();
        assert!(bdd.try_var(v).is_ok());
    }
}
