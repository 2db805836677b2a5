//! Irredundant sum-of-products extraction (Minato–Morreale ISOP).
//!
//! Computes a prime-and-irredundant cube cover of an incompletely
//! specified function given as an interval `[lower, upper]`. Used to
//! write compact BLIF covers and to decompose table nodes into two-level
//! library-gate logic.

use crate::count::Cube;
use crate::manager::{Bdd, BddResult};
use crate::node::{Ref, Var};

impl Bdd {
    /// An irredundant SOP cover of `f` (exact: `cover ≡ f`).
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded.
    pub fn isop(&mut self, f: Ref) -> Vec<Cube> {
        self.try_isop_between(f, f)
            .expect("bdd node limit exceeded")
            .0
    }

    /// An irredundant cover `C` with `lower ⊆ C ⊆ upper`, plus the
    /// cover's characteristic function.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BddError`] if the node limit would be
    /// exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `lower ⊄ upper` (no cover exists).
    pub fn try_isop_between(&mut self, lower: Ref, upper: Ref) -> BddResult<(Vec<Cube>, Ref)> {
        {
            let nu = self.try_not(upper)?;
            assert!(
                self.try_and(lower, nu)?.is_false(),
                "isop needs lower ⊆ upper"
            );
        }
        self.isop_rec(lower, upper)
    }

    fn isop_rec(&mut self, lower: Ref, upper: Ref) -> BddResult<(Vec<Cube>, Ref)> {
        // Cache-hit-heavy recursion: the inner and/or/not calls may
        // never reach `mk`'s poll, so poll (amortized) here too to
        // keep deadlines binding within milliseconds.
        self.poll_governor()?;
        if lower.is_false() {
            return Ok((Vec::new(), Ref::FALSE));
        }
        if upper.is_true() {
            return Ok((vec![Cube::new()], Ref::TRUE));
        }
        // Branch on the top variable of the pair.
        let ll = self.level(lower.0);
        let lu = self.level(upper.0);
        let top = ll.min(lu);
        let var = Var(top);
        let (l0, l1) = self.cofactors_at_level(lower, top);
        let (u0, u1) = self.cofactors_at_level(upper, top);

        // Cubes that must contain ¬v: needed in the 0-half but not
        // allowed in the 1-half.
        let nu1 = self.try_not(u1)?;
        let lneg = self.try_and(l0, nu1)?;
        let (mut c0, g0) = self.isop_rec(lneg, u0)?;
        // Cubes that must contain v.
        let nu0 = self.try_not(u0)?;
        let lpos = self.try_and(l1, nu0)?;
        let (mut c1, g1) = self.isop_rec(lpos, u1)?;

        // Remaining minterms, coverable without a v literal.
        let ng0 = self.try_not(g0)?;
        let ng1 = self.try_not(g1)?;
        let ld0 = self.try_and(l0, ng0)?;
        let ld1 = self.try_and(l1, ng1)?;
        let ld = self.try_or(ld0, ld1)?;
        let ud = self.try_and(u0, u1)?;
        let (cd, gd) = self.isop_rec(ld, ud)?;

        let mut cubes = Vec::with_capacity(c0.len() + c1.len() + cd.len());
        for c in c0.drain(..) {
            let mut c = c;
            c.push((var, false));
            cubes.push(c);
        }
        for c in c1.drain(..) {
            let mut c = c;
            c.push((var, true));
            cubes.push(c);
        }
        cubes.extend(cd);

        // Cover function: ¬v·g0 + v·g1 + gd.
        let nv = self.try_nvar(var)?;
        let pv = self.try_var(var)?;
        let t0 = self.try_and(nv, g0)?;
        let t1 = self.try_and(pv, g1)?;
        let mut g = self.try_or(t0, t1)?;
        g = self.try_or(g, gd)?;
        Ok((cubes, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube_fn(bdd: &mut Bdd, cube: &Cube) -> Ref {
        let mut f = Ref::TRUE;
        for &(v, val) in cube {
            let lit = bdd.literal(v, val);
            f = bdd.and(f, lit);
        }
        f
    }

    fn cover_fn(bdd: &mut Bdd, cubes: &[Cube]) -> Ref {
        let mut f = Ref::FALSE;
        for c in cubes {
            let t = cube_fn(bdd, c);
            f = bdd.or(f, t);
        }
        f
    }

    #[test]
    fn isop_covers_exactly() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let d = bdd.var(vs[3]);
        let t1 = bdd.and(a, b);
        let t2 = bdd.xor(c, d);
        let f = bdd.or(t1, t2);
        let cubes = bdd.isop(f);
        let g = cover_fn(&mut bdd, &cubes);
        assert_eq!(g, f);
    }

    #[test]
    fn isop_is_irredundant() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(4);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let ab = bdd.and(a, b);
        let bc = bdd.and(b, c);
        let f = bdd.or(ab, bc);
        let cubes = bdd.isop(f);
        // Dropping any single cube must lose coverage.
        for skip in 0..cubes.len() {
            let rest: Vec<Cube> = cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            let g = cover_fn(&mut bdd, &rest);
            assert_ne!(g, f, "cube {skip} is redundant");
        }
    }

    #[test]
    fn isop_of_constants() {
        let mut bdd = Bdd::new();
        let _ = bdd.fresh_vars(2);
        assert!(bdd.isop(Ref::FALSE).is_empty());
        let c = bdd.isop(Ref::TRUE);
        assert_eq!(c, vec![Cube::new()]);
    }

    #[test]
    fn interval_cover_respects_bounds() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(3);
        let a = bdd.var(vs[0]);
        let b = bdd.var(vs[1]);
        let c = bdd.var(vs[2]);
        let lower = {
            let t = bdd.and(a, b);
            bdd.and(t, c)
        };
        let upper = bdd.or(a, b);
        let (cubes, g) = bdd.try_isop_between(lower, upper).unwrap();
        assert!(bdd.is_subset(lower, g), "covers the lower bound");
        assert!(bdd.is_subset(g, upper), "stays within the upper bound");
        // With that much freedom, the cover should be a single cube.
        assert_eq!(cubes.len(), 1);
    }

    #[test]
    #[should_panic(expected = "lower ⊆ upper")]
    fn rejects_invalid_interval() {
        let mut bdd = Bdd::new();
        let vs = bdd.fresh_vars(2);
        let a = bdd.var(vs[0]);
        let na = bdd.not(a);
        let _ = bdd.try_isop_between(a, na);
    }
}
