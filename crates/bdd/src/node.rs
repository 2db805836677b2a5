//! Node and handle types for the BDD arena.

use std::fmt;

/// Index of a decision variable.
///
/// Variables are created with [`crate::Bdd::fresh_var`] and are identified
/// by a dense index. The order is the creation order, so the index is
/// also the variable's *level* in every diagram (0 = topmost).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Dense index of this variable, which is also its level.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a variable from a raw index.
    ///
    /// Only meaningful for indices previously returned by
    /// [`crate::Bdd::fresh_var`] on the same manager.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Handle to a BDD function stored in a [`crate::Bdd`] manager.
///
/// Handles are plain indices: copying them is free, and two handles from
/// the *same* manager denote the same Boolean function if and only if they
/// are equal (canonicity of ROBDDs). A handle is only meaningful together
/// with the manager that produced it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// The constant false function.
    pub const FALSE: Ref = Ref(0);
    /// The constant true function.
    pub const TRUE: Ref = Ref(1);

    /// Is this the constant false function?
    #[inline]
    pub fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Is this the constant true function?
    #[inline]
    pub fn is_true(self) -> bool {
        self.0 == 1
    }

    /// Is this one of the two constant functions?
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw arena index (for diagnostics and serialization only).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Ref::FALSE => write!(f, "⊥"),
            Ref::TRUE => write!(f, "⊤"),
            Ref(i) => write!(f, "@{i}"),
        }
    }
}

/// Sentinel variable index used by the two terminal nodes.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// Internal decision node: `if var then hi else lo`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: u32,
    pub hi: u32,
}

impl Node {
    #[inline]
    pub(crate) fn terminal() -> Self {
        Node {
            var: TERMINAL_VAR,
            lo: 0,
            hi: 0,
        }
    }

    #[inline]
    pub(crate) fn is_terminal(&self) -> bool {
        self.var == TERMINAL_VAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_const() {
        assert!(Ref::FALSE.is_false());
        assert!(Ref::TRUE.is_true());
        assert!(Ref::FALSE.is_const());
        assert!(Ref::TRUE.is_const());
        assert!(!Ref(7).is_const());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ref::FALSE.to_string(), "⊥");
        assert_eq!(Ref::TRUE.to_string(), "⊤");
        assert_eq!(Ref(9).to_string(), "@9");
        assert_eq!(Var(3).to_string(), "v3");
    }

    #[test]
    fn var_roundtrip() {
        let v = Var::from_index(12);
        assert_eq!(v.index(), 12);
    }

    #[test]
    fn terminal_node_flag() {
        assert!(Node::terminal().is_terminal());
        let n = Node {
            var: 0,
            lo: 0,
            hi: 1,
        };
        assert!(!n.is_terminal());
    }
}
