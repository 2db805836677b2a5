//! Quantification and support computation.

use crate::hash::{FxHashMap, FxHashSet};
use crate::manager::{Bdd, BddResult};
use crate::node::{Ref, Var};

impl Bdd {
    fn var_mask(&self, vars: &[Var]) -> Vec<bool> {
        let mut mask = vec![false; self.var_count()];
        for v in vars {
            mask[v.index()] = true;
        }
        mask
    }

    /// Existential quantification `∃ vars . f`, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_exists(&mut self, f: Ref, vars: &[Var]) -> BddResult<Ref> {
        let mask = self.var_mask(vars);
        let mut cache = FxHashMap::default();
        self.quant_rec(f, &mask, true, &mut cache)
    }

    /// Universal quantification `∀ vars . f`, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_forall(&mut self, f: Ref, vars: &[Var]) -> BddResult<Ref> {
        let mask = self.var_mask(vars);
        let mut cache = FxHashMap::default();
        self.quant_rec(f, &mask, false, &mut cache)
    }

    /// Existential quantification `∃ vars . f`.
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
    /// let x = bdd.fresh_var();
    /// let y = bdd.fresh_var();
    /// let fx = bdd.var(x);
    /// let fy = bdd.var(y);
    /// let f = bdd.and(fx, fy);
    /// assert_eq!(bdd.exists(f, &[y]), fx);
    /// ```
    pub fn exists(&mut self, f: Ref, vars: &[Var]) -> Ref {
        self.try_exists(f, vars).expect("bdd node limit exceeded")
    }

    /// Universal quantification `∀ vars . f`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn forall(&mut self, f: Ref, vars: &[Var]) -> Ref {
        self.try_forall(f, vars).expect("bdd node limit exceeded")
    }

    fn quant_rec(
        &mut self,
        f: Ref,
        mask: &[bool],
        existential: bool,
        cache: &mut FxHashMap<u32, u32>,
    ) -> BddResult<Ref> {
        // Poll here as well as in `mk`: a cache-dominated traversal
        // creates no nodes, so this is its only deadline check.
        self.poll_governor()?;
        if f.is_const() {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f.0) {
            return Ok(Ref(r));
        }
        let n = self.node(f.0);
        let lo = self.quant_rec(Ref(n.lo), mask, existential, cache)?;
        let hi = self.quant_rec(Ref(n.hi), mask, existential, cache)?;
        let r = if mask[n.var as usize] {
            if existential {
                self.try_or(lo, hi)?
            } else {
                self.try_and(lo, hi)?
            }
        } else {
            self.mk(n.var, lo, hi)?
        };
        cache.insert(f.0, r.0);
        Ok(r)
    }

    /// The set of variables `f` actually depends on, in index order.
    pub fn support(&self, f: Ref) -> Vec<Var> {
        let mut seen = FxHashSet::default();
        let mut vars = FxHashSet::default();
        let mut stack = vec![f.0];
        while let Some(i) = stack.pop() {
            if i <= 1 || !seen.insert(i) {
                continue;
            }
            let n = self.node(i);
            vars.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        let mut out: Vec<Var> = vars.into_iter().map(Var).collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_removes_var() {
        let mut bdd = Bdd::new();
        let x = bdd.fresh_var();
        let y = bdd.fresh_var();
        let fx = bdd.var(x);
        let fy = bdd.var(y);
        let f = bdd.and(fx, fy);
        assert_eq!(bdd.exists(f, &[x]), fy);
        assert_eq!(bdd.exists(f, &[x, y]), Ref::TRUE);
        assert_eq!(bdd.exists(Ref::FALSE, &[x]), Ref::FALSE);
    }

    #[test]
    fn forall_is_dual() {
        let mut bdd = Bdd::new();
        let x = bdd.fresh_var();
        let y = bdd.fresh_var();
        let fx = bdd.var(x);
        let fy = bdd.var(y);
        let f = bdd.or(fx, fy);
        // ∀x. x+y = y
        assert_eq!(bdd.forall(f, &[x]), fy);
        // ∀x,y. x+y = false
        assert_eq!(bdd.forall(f, &[x, y]), Ref::FALSE);
        // duality: ∀v.f = ¬∃v.¬f
        let nf = bdd.not(f);
        let e = bdd.exists(nf, &[x]);
        let dual = bdd.not(e);
        let direct = bdd.forall(f, &[x]);
        assert_eq!(dual, direct);
    }

    #[test]
    fn support_reports_dependencies() {
        let mut bdd = Bdd::new();
        let x = bdd.fresh_var();
        let y = bdd.fresh_var();
        let z = bdd.fresh_var();
        let fx = bdd.var(x);
        let fz = bdd.var(z);
        let f = bdd.xor(fx, fz);
        assert_eq!(bdd.support(f), vec![x, z]);
        assert_eq!(bdd.support(Ref::TRUE), vec![]);
        let fy = bdd.var(y);
        assert_eq!(bdd.support(fy), vec![y]);
    }

    #[test]
    fn quantifying_absent_var_is_identity() {
        let mut bdd = Bdd::new();
        let x = bdd.fresh_var();
        let y = bdd.fresh_var();
        let fx = bdd.var(x);
        assert_eq!(bdd.exists(fx, &[y]), fx);
        assert_eq!(bdd.forall(fx, &[y]), fx);
    }
}
