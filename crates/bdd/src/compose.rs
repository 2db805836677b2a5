//! Cofactors, restriction and (vector) composition.

use crate::hash::FxHashMap;
use crate::manager::{Bdd, BddResult};
use crate::node::{Ref, Var};

impl Bdd {
    /// Cofactor `f|_{v = value}`, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_restrict(&mut self, f: Ref, v: Var, value: bool) -> BddResult<Ref> {
        let mut cache = FxHashMap::default();
        self.restrict_rec(f, v.0, value, &mut cache)
    }

    /// Cofactor `f|_{v = value}`.
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
    /// assert_eq!(bdd.restrict(f, x, true), fy);
    /// assert!(bdd.restrict(f, x, false).is_false());
    /// ```
    pub fn restrict(&mut self, f: Ref, v: Var, value: bool) -> Ref {
        self.try_restrict(f, v, value)
            .expect("bdd node limit exceeded")
    }

    /// Restriction under a partial assignment (a cube).
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn restrict_cube(&mut self, f: Ref, cube: &[(Var, bool)]) -> Ref {
        let mut cur = f;
        for &(v, val) in cube {
            cur = self.restrict(cur, v, val);
        }
        cur
    }

    fn restrict_rec(
        &mut self,
        f: Ref,
        var: u32,
        value: bool,
        cache: &mut FxHashMap<u32, u32>,
    ) -> BddResult<Ref> {
        if f.is_const() {
            return Ok(f);
        }
        if self.level(f.0) > var {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f.0) {
            return Ok(Ref(r));
        }
        let n = self.node(f.0);
        let r = if n.var == var {
            if value {
                Ref(n.hi)
            } else {
                Ref(n.lo)
            }
        } else {
            let lo = self.restrict_rec(Ref(n.lo), var, value, cache)?;
            let hi = self.restrict_rec(Ref(n.hi), var, value, cache)?;
            self.mk(n.var, lo, hi)?
        };
        cache.insert(f.0, r.0);
        Ok(r)
    }

    /// Functional composition `f[v := g]`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn compose(&mut self, f: Ref, v: Var, g: Ref) -> Ref {
        let mut map = FxHashMap::default();
        map.insert(v.0, g);
        self.try_compose_many(f, &map)
            .expect("bdd node limit exceeded")
    }

    /// Simultaneous composition: every variable in `subst` is replaced by
    /// its image, all at once (substituted functions are *not* themselves
    /// rewritten).
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn compose_many(&mut self, f: Ref, subst: &[(Var, Ref)]) -> Ref {
        let mut map = FxHashMap::default();
        for &(v, g) in subst {
            map.insert(v.0, g);
        }
        self.try_compose_many(f, &map)
            .expect("bdd node limit exceeded")
    }

    /// Fallible simultaneous composition keyed by raw variable index.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    pub fn try_compose_many(&mut self, f: Ref, subst: &FxHashMap<u32, Ref>) -> BddResult<Ref> {
        let mut cache = FxHashMap::default();
        self.compose_rec(f, subst, &mut cache)
    }

    fn compose_rec(
        &mut self,
        f: Ref,
        subst: &FxHashMap<u32, Ref>,
        cache: &mut FxHashMap<u32, u32>,
    ) -> BddResult<Ref> {
        if f.is_const() {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f.0) {
            return Ok(Ref(r));
        }
        let n = self.node(f.0);
        let lo = self.compose_rec(Ref(n.lo), subst, cache)?;
        let hi = self.compose_rec(Ref(n.hi), subst, cache)?;
        let selector = match subst.get(&n.var) {
            Some(&g) => g,
            None => self.mk(n.var, Ref::FALSE, Ref::TRUE)?,
        };
        let r = self.try_ite(selector, hi, lo)?;
        cache.insert(f.0, r.0);
        Ok(r)
    }

    /// Renames variables: `f[old_i := new_i]` simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded, or if `pairs` maps two old
    /// variables to the same new variable.
    pub fn rename(&mut self, f: Ref, pairs: &[(Var, Var)]) -> Ref {
        let mut targets: Vec<Var> = pairs.iter().map(|&(_, n)| n).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(
            targets.len(),
            pairs.len(),
            "rename targets must be distinct"
        );
        let subst: Vec<(Var, Ref)> = pairs
            .iter()
            .map(|&(old, new)| {
                let lit = self.var(new);
                (old, lit)
            })
            .collect();
        self.compose_many(f, &subst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restrict_shannon_expansion() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let f = {
            let t = bdd.and(a, b);
            bdd.xor(t, c)
        };
        // f = a·f1 + ¬a·f0
        let f1 = bdd.restrict(f, vs[0], true);
        let f0 = bdd.restrict(f, vs[0], false);
        let expanded = bdd.ite(a, f1, f0);
        assert_eq!(expanded, f);
    }

    #[test]
    fn restrict_cube_applies_all() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let ab = bdd.and(a, b);
        let f = bdd.or(ab, c);
        let g = bdd.restrict_cube(f, &[(vs[0], true), (vs[2], false)]);
        assert_eq!(g, b);
    }

    #[test]
    fn compose_replaces_variable() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let f = bdd.xor(a, b);
        let g = bdd.and(b, c);
        // f[a := b·c] = (b·c) ⊕ b
        let composed = bdd.compose(f, vs[0], g);
        let expect = bdd.xor(g, b);
        assert_eq!(composed, expect);
    }

    #[test]
    fn compose_many_is_simultaneous() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let d = bdd.var(vs[3]);
        let f = bdd.xor(a, b);
        // Swap a<->b via fresh carriers would fail if sequential; the
        // simultaneous semantics make direct swap safe.
        let swapped = bdd.compose_many(f, &[(vs[0], b), (vs[1], a)]);
        assert_eq!(swapped, f); // xor is symmetric
        let g = bdd.compose_many(f, &[(vs[0], c), (vs[1], d)]);
        let expect = bdd.xor(c, d);
        assert_eq!(g, expect);
    }

    #[test]
    fn rename_moves_support() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let f = bdd.and(a, b);
        let g = bdd.rename(f, &[(vs[0], vs[2]), (vs[1], vs[3])]);
        assert_eq!(bdd.support(g), vec![vs[2], vs[3]]);
        let c = bdd.var(vs[2]);
        let d = bdd.var(vs[3]);
        let expect = bdd.and(c, d);
        assert_eq!(g, expect);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rename_collision_panics() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let f = bdd.and(a, b);
        let _ = bdd.rename(f, &[(vs[0], vs[2]), (vs[1], vs[2])]);
    }
}
