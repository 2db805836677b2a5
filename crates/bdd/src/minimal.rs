//! Minimal/maximal element extraction under the Boolean lattice.
//!
//! The exact required-time relation of the paper (§4.1, footnote 5) asks
//! for *all minimal elements* of each per-minterm set of leaf-χ vectors:
//! an element is minimal when no other element of the set is pointwise ≤
//! it. Analogously, the primes of the monotone `F(α, β)` of §4.2 are
//! exactly its minimal satisfying assignments (Theorem 1).
//!
//! These operators work *with respect to a subset of the variables*: the
//! remaining variables (the primary inputs `X` in the paper) act as fixed
//! parameters — two assignments are only comparable when they agree on all
//! parameter variables.

use crate::hash::FxHashMap;
use crate::manager::{Bdd, BddResult};
use crate::node::{Ref, Var};

struct LatticeCtx {
    /// Is this variable part of the lattice order (by var index)?
    mask: Vec<bool>,
    /// Levels (indices) of the lattice variables, sorted ascending.
    ordered_levels: Vec<u32>,
}

impl LatticeCtx {
    fn next_lattice_level(&self, l: u32) -> u32 {
        match self.ordered_levels.binary_search(&l) {
            Ok(i) => self.ordered_levels[i],
            Err(i) if i < self.ordered_levels.len() => self.ordered_levels[i],
            _ => u32::MAX,
        }
    }
}

impl Bdd {
    fn lattice_ctx(&self, vars: &[Var]) -> LatticeCtx {
        let mut mask = vec![false; self.var_count()];
        let mut levels = Vec::with_capacity(vars.len());
        for v in vars {
            mask[v.index()] = true;
            levels.push(v.0);
        }
        levels.sort_unstable();
        LatticeCtx {
            mask,
            ordered_levels: levels,
        }
    }

    /// Minimal elements of `f` with respect to the pointwise order on
    /// `vars` (other variables are fixed parameters).
    ///
    /// An assignment `x ∈ f` survives iff no `y ∈ f` agrees with `x`
    /// outside `vars` and is pointwise ≤ `x` on `vars` with `y ≠ x`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrta_bdd::Bdd;
    /// let mut bdd = Bdd::new();
    /// let a = bdd.fresh_var();
    /// let b = bdd.fresh_var();
    /// let fa = bdd.var(a);
    /// let fb = bdd.var(b);
    /// // f = a + b; minimal elements are exactly {10, 01}.
    /// let f = bdd.or(fa, fb);
    /// let m = bdd.minimal_wrt(f, &[a, b]);
    /// let xor = bdd.xor(fa, fb);
    /// assert_eq!(m, xor);
    /// ```
    pub fn minimal_wrt(&mut self, f: Ref, vars: &[Var]) -> Ref {
        self.try_minimal_wrt(f, vars)
            .expect("bdd node limit exceeded")
    }

    /// Fallible form of [`Bdd::minimal_wrt`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_minimal_wrt(&mut self, f: Ref, vars: &[Var]) -> BddResult<Ref> {
        let ctx = self.lattice_ctx(vars);
        let mut min_cache = FxHashMap::default();
        let mut up_cache = FxHashMap::default();
        self.min_rec(f, 0, &ctx, &mut min_cache, &mut up_cache)
    }

    /// Upward closure of `f` with respect to `vars`: all assignments that
    /// dominate (pointwise ≥ on `vars`) some element of `f`, parameters
    /// held fixed. For a monotone-increasing `f` this is `f` itself.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn upper_closure_wrt(&mut self, f: Ref, vars: &[Var]) -> Ref {
        self.try_upper_closure_wrt(f, vars)
            .expect("bdd node limit exceeded")
    }

    /// Fallible form of [`Bdd::upper_closure_wrt`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_upper_closure_wrt(&mut self, f: Ref, vars: &[Var]) -> BddResult<Ref> {
        let ctx = self.lattice_ctx(vars);
        let mut cache = FxHashMap::default();
        self.up_rec(f, &ctx, &mut cache)
    }

    /// Maximal elements of `f` with respect to the pointwise order on
    /// `vars` (dual of [`Bdd::minimal_wrt`]).
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn maximal_wrt(&mut self, f: Ref, vars: &[Var]) -> Ref {
        self.try_maximal_wrt(f, vars)
            .expect("bdd node limit exceeded")
    }

    /// Fallible form of [`Bdd::maximal_wrt`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_maximal_wrt(&mut self, f: Ref, vars: &[Var]) -> BddResult<Ref> {
        let ctx = self.lattice_ctx(vars);
        let mut max_cache = FxHashMap::default();
        let mut down_cache = FxHashMap::default();
        self.max_rec(f, 0, &ctx, &mut max_cache, &mut down_cache)
    }

    /// Downward closure of `f` with respect to `vars`: all assignments
    /// dominated by some element of `f`, parameters held fixed.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn lower_closure_wrt(&mut self, f: Ref, vars: &[Var]) -> Ref {
        let ctx = self.lattice_ctx(vars);
        let mut cache = FxHashMap::default();
        self.down_rec(f, &ctx, &mut cache)
            .expect("bdd node limit exceeded")
    }

    fn min_rec(
        &mut self,
        f: Ref,
        from_level: u32,
        ctx: &LatticeCtx,
        min_cache: &mut FxHashMap<(u32, u32), u32>,
        up_cache: &mut FxHashMap<u32, u32>,
    ) -> BddResult<Ref> {
        if f.is_false() {
            return Ok(Ref::FALSE);
        }
        // The next level where something can happen: either the root of f
        // or a lattice variable that must be forced to 0.
        let node_level = self.level(f.0);
        let lattice_level = ctx.next_lattice_level(from_level);
        let l = node_level.min(lattice_level);
        if l == u32::MAX {
            // No lattice variables left, f constant true.
            return Ok(f);
        }
        let key = (f.0, l);
        if let Some(&r) = min_cache.get(&key) {
            return Ok(Ref(r));
        }
        let (f0, f1) = self.cofactors_at_level(f, l);
        let r = if ctx.mask[l as usize] {
            let lo = self.min_rec(f0, l + 1, ctx, min_cache, up_cache)?;
            let m1 = self.min_rec(f1, l + 1, ctx, min_cache, up_cache)?;
            let u0 = self.up_rec(f0, ctx, up_cache)?;
            let nu0 = self.try_not(u0)?;
            let hi = self.try_and(m1, nu0)?;
            self.mk(l, lo, hi)?
        } else {
            let lo = self.min_rec(f0, l + 1, ctx, min_cache, up_cache)?;
            let hi = self.min_rec(f1, l + 1, ctx, min_cache, up_cache)?;
            self.mk(l, lo, hi)?
        };
        min_cache.insert(key, r.0);
        Ok(r)
    }

    fn up_rec(
        &mut self,
        f: Ref,
        ctx: &LatticeCtx,
        cache: &mut FxHashMap<u32, u32>,
    ) -> BddResult<Ref> {
        if f.is_const() {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f.0) {
            return Ok(Ref(r));
        }
        let n = self.node(f.0);
        let r = if ctx.mask[n.var as usize] {
            let lo = self.up_rec(Ref(n.lo), ctx, cache)?;
            let both = self.try_or(Ref(n.lo), Ref(n.hi))?;
            let hi = self.up_rec(both, ctx, cache)?;
            self.mk(n.var, lo, hi)?
        } else {
            let lo = self.up_rec(Ref(n.lo), ctx, cache)?;
            let hi = self.up_rec(Ref(n.hi), ctx, cache)?;
            self.mk(n.var, lo, hi)?
        };
        cache.insert(f.0, r.0);
        Ok(r)
    }

    fn max_rec(
        &mut self,
        f: Ref,
        from_level: u32,
        ctx: &LatticeCtx,
        max_cache: &mut FxHashMap<(u32, u32), u32>,
        down_cache: &mut FxHashMap<u32, u32>,
    ) -> BddResult<Ref> {
        if f.is_false() {
            return Ok(Ref::FALSE);
        }
        let node_level = self.level(f.0);
        let lattice_level = ctx.next_lattice_level(from_level);
        let l = node_level.min(lattice_level);
        if l == u32::MAX {
            return Ok(f);
        }
        let key = (f.0, l);
        if let Some(&r) = max_cache.get(&key) {
            return Ok(Ref(r));
        }
        let (f0, f1) = self.cofactors_at_level(f, l);
        let r = if ctx.mask[l as usize] {
            let hi = self.max_rec(f1, l + 1, ctx, max_cache, down_cache)?;
            let m0 = self.max_rec(f0, l + 1, ctx, max_cache, down_cache)?;
            let d1 = self.down_rec(f1, ctx, down_cache)?;
            let nd1 = self.try_not(d1)?;
            let lo = self.try_and(m0, nd1)?;
            self.mk(l, lo, hi)?
        } else {
            let lo = self.max_rec(f0, l + 1, ctx, max_cache, down_cache)?;
            let hi = self.max_rec(f1, l + 1, ctx, max_cache, down_cache)?;
            self.mk(l, lo, hi)?
        };
        max_cache.insert(key, r.0);
        Ok(r)
    }

    fn down_rec(
        &mut self,
        f: Ref,
        ctx: &LatticeCtx,
        cache: &mut FxHashMap<u32, u32>,
    ) -> BddResult<Ref> {
        if f.is_const() {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f.0) {
            return Ok(Ref(r));
        }
        let n = self.node(f.0);
        let r = if ctx.mask[n.var as usize] {
            let both = self.try_or(Ref(n.lo), Ref(n.hi))?;
            let lo = self.down_rec(both, ctx, cache)?;
            let hi = self.down_rec(Ref(n.hi), ctx, cache)?;
            self.mk(n.var, lo, hi)?
        } else {
            let lo = self.down_rec(Ref(n.lo), ctx, cache)?;
            let hi = self.down_rec(Ref(n.hi), ctx, cache)?;
            self.mk(n.var, lo, hi)?
        };
        cache.insert(f.0, r.0);
        Ok(r)
    }

    /// Prime implicants of a **monotone increasing** function, as cubes of
    /// positive literals (Theorem 1 of the paper: primes of a monotone
    /// function correspond one-to-one with its minimal satisfying
    /// assignments).
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    ///
    /// Behaviour is unspecified (but memory-safe) if `f` is not monotone
    /// increasing in `vars`.
    pub fn monotone_primes(&mut self, f: Ref, vars: &[Var]) -> Vec<Vec<Var>> {
        let min = self.minimal_wrt(f, vars);
        let mut primes = Vec::new();
        for cube in self.cubes(min) {
            // A minimal assignment has some vars at 1 (the prime's
            // literals) and the rest at 0; don't-care vars in the path
            // cube can only be parameters, never lattice vars (minimality
            // forces every unset lattice var to 0, making it explicit on
            // the path or absent because the function doesn't depend on
            // it — absent means 0 is allowed, so it is not in the prime).
            let mut lits: Vec<Var> = cube
                .iter()
                .filter(|&&(v, val)| val && vars.contains(&v))
                .map(|&(v, _)| v)
                .collect();
            lits.sort();
            primes.push(lits);
        }
        primes.sort();
        primes.dedup();
        primes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force minimal elements for cross-checking.
    fn brute_minimal(bdd: &Bdd, f: Ref, vars: &[Var], nvars: usize) -> Vec<Vec<bool>> {
        let total = 1usize << nvars;
        let assignments: Vec<Vec<bool>> = (0..total)
            .map(|m| (0..nvars).map(|i| (m >> i) & 1 == 1).collect::<Vec<bool>>())
            .filter(|a| bdd.eval(f, a))
            .collect();
        let dominated = |x: &Vec<bool>, y: &Vec<bool>| {
            // y < x on vars, equal elsewhere
            let mut strictly = false;
            for i in 0..nvars {
                let is_lattice = vars.iter().any(|v| v.index() == i);
                if is_lattice {
                    if y[i] && !x[i] {
                        return false;
                    }
                    if x[i] && !y[i] {
                        strictly = true;
                    }
                } else if x[i] != y[i] {
                    return false;
                }
            }
            strictly
        };
        assignments
            .iter()
            .filter(|x| !assignments.iter().any(|y| dominated(x, y)))
            .cloned()
            .collect()
    }

    #[test]
    fn minimal_of_or_is_xor() {
        let mut bdd = Bdd::new();
        let a = bdd.fresh_var();
        let b = bdd.fresh_var();
        let fa = bdd.var(a);
        let fb = bdd.var(b);
        let f = bdd.or(fa, fb);
        let m = bdd.minimal_wrt(f, &[a, b]);
        let expect = bdd.xor(fa, fb);
        assert_eq!(m, expect);
    }

    #[test]
    fn minimal_matches_brute_force() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let d = bdd.var(vs[3]);
        // A non-monotone mix.
        let t1 = bdd.and(a, b);
        let nc = bdd.not(c);
        let t2 = bdd.and(nc, d);
        let f = bdd.or(t1, t2);
        let lattice = [vs[0], vs[1], vs[3]]; // c is a parameter
        let m = bdd.minimal_wrt(f, &lattice);
        let got = {
            let mut g: Vec<Vec<bool>> = (0..16u32)
                .map(|x| (0..4).map(|i| (x >> i) & 1 == 1).collect())
                .filter(|asst: &Vec<bool>| bdd.eval(m, asst))
                .collect();
            g.sort();
            g
        };
        let mut expect = brute_minimal(&bdd, f, &lattice, 4);
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn upper_closure_of_monotone_is_identity() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let ab = bdd.and(a, b);
        let f = bdd.or(ab, c); // monotone increasing
        let up = bdd.upper_closure_wrt(f, &vs);
        assert_eq!(up, f);
    }

    #[test]
    fn upper_closure_adds_dominating_points() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(2);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        // f = a·¬b : single point 10.
        let nb = bdd.not(b);
        let f = bdd.and(a, nb);
        let up = bdd.upper_closure_wrt(f, &vs);
        // Upward closure of {10} is {10, 11} = a.
        assert_eq!(up, a);
    }

    #[test]
    fn minimal_and_maximal_within_f() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(5);
        let lits: Vec<Ref> = vs.iter().map(|&v| bdd.var(v)).collect();
        let t1 = bdd.and(lits[0], lits[2]);
        let t2 = bdd.xor(lits[1], lits[4]);
        let f = bdd.or(t1, t2);
        let m = bdd.minimal_wrt(f, &vs);
        let mx = bdd.maximal_wrt(f, &vs);
        assert!(bdd.is_subset(m, f));
        assert!(bdd.is_subset(mx, f));
        assert!(!m.is_false());
        assert!(!mx.is_false());
    }

    #[test]
    fn closure_recovers_f_from_minimal_when_monotone() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let lits: Vec<Ref> = vs.iter().map(|&v| bdd.var(v)).collect();
        let t1 = bdd.and(lits[0], lits[1]);
        let t2 = bdd.and(lits[2], lits[3]);
        let f = bdd.or(t1, t2); // monotone
        let m = bdd.minimal_wrt(f, &vs);
        let up = bdd.upper_closure_wrt(m, &vs);
        assert_eq!(up, f);
    }

    #[test]
    fn monotone_primes_of_two_cubes() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let lits: Vec<Ref> = vs.iter().map(|&v| bdd.var(v)).collect();
        let t1 = bdd.and(lits[0], lits[1]);
        let t2 = bdd.and(lits[2], lits[3]);
        let f = bdd.or(t1, t2);
        let primes = bdd.monotone_primes(f, &vs);
        assert_eq!(
            primes,
            vec![vec![vs[0], vs[1]], vec![vs[2], vs[3]]],
            "primes of ab + cd are exactly ab and cd"
        );
    }

    #[test]
    fn monotone_primes_constant_true() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let primes = bdd.monotone_primes(Ref::TRUE, &vs);
        assert_eq!(
            primes,
            vec![Vec::<Var>::new()],
            "tautology has the empty prime"
        );
        let primes = bdd.monotone_primes(Ref::FALSE, &vs);
        assert!(primes.is_empty());
    }

    #[test]
    fn terminal_true_minimal_is_all_zero() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let m = bdd.minimal_wrt(Ref::TRUE, &vs);
        let zero = {
            let na = bdd.nvar(vs[0]);
            let nb = bdd.nvar(vs[1]);
            let nc = bdd.nvar(vs[2]);
            let t = bdd.and(na, nb);
            bdd.and(t, nc)
        };
        assert_eq!(m, zero);
        // And the maximal element is all-ones.
        let mx = bdd.maximal_wrt(Ref::TRUE, &vs);
        let one = {
            let a = bdd.var(vs[0]);
            let b = bdd.var(vs[1]);
            let c = bdd.var(vs[2]);
            let t = bdd.and(a, b);
            bdd.and(t, c)
        };
        assert_eq!(mx, one);
    }
}
