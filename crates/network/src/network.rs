//! The Boolean network: a DAG of gates between primary inputs and
//! primary outputs.

use std::collections::HashMap;
use std::fmt;

use crate::gate::GateKind;
use crate::truth::{Cube, TruthTable};

/// Dense identifier of a node within a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds from a raw index (must come from the same network).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node computes.
#[derive(Clone, Debug)]
pub enum NodeFunc {
    /// A primary input: no local function.
    Input,
    /// A gate with a local function over its fanins.
    Gate {
        /// The local truth table (arity = number of fanins).
        table: TruthTable,
        /// Library kind when known (enables O(1) prime sets).
        kind: Option<GateKind>,
    },
}

/// A node: name, function, fanins.
#[derive(Clone, Debug)]
pub struct Node {
    /// Unique name within the network.
    pub name: String,
    /// Local function.
    pub func: NodeFunc,
    /// Fanin node ids (order matters: it is the truth-table input order).
    pub fanins: Vec<NodeId>,
}

impl Node {
    /// Is this a primary input node?
    pub fn is_input(&self) -> bool {
        matches!(self.func, NodeFunc::Input)
    }

    /// The local truth table (`None` for inputs).
    pub fn table(&self) -> Option<&TruthTable> {
        match &self.func {
            NodeFunc::Input => None,
            NodeFunc::Gate { table, .. } => Some(table),
        }
    }

    /// Primes of the local function (`P_n^1`).
    ///
    /// # Panics
    ///
    /// Panics if called on a primary input.
    pub fn primes(&self) -> Vec<Cube> {
        match &self.func {
            NodeFunc::Input => panic!("primary input has no local function"),
            NodeFunc::Gate { table, kind } => match kind {
                Some(k) => k.primes(self.fanins.len()),
                None => table.primes(),
            },
        }
    }

    /// Primes of the complement of the local function (`P_n^0`).
    ///
    /// # Panics
    ///
    /// Panics if called on a primary input.
    pub fn primes_of_complement(&self) -> Vec<Cube> {
        match &self.func {
            NodeFunc::Input => panic!("primary input has no local function"),
            NodeFunc::Gate { table, kind } => match kind {
                Some(k) => k.primes_of_complement(self.fanins.len()),
                None => table.primes_of_complement(),
            },
        }
    }
}

/// Error raised by network construction and lookup operations.
#[derive(Debug, PartialEq, Eq)]
pub enum NetworkError {
    /// A node name was declared twice.
    DuplicateName(String),
    /// A referenced name does not exist.
    UnknownName(String),
    /// The arity of a gate does not match its truth table / kind.
    ArityMismatch {
        /// Offending node name.
        name: String,
        /// Fanin count supplied.
        fanins: usize,
        /// Arity expected by the function.
        expected: usize,
    },
    /// A combinational cycle was detected.
    Cyclic(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DuplicateName(n) => write!(f, "duplicate node name {n:?}"),
            NetworkError::UnknownName(n) => write!(f, "unknown node name {n:?}"),
            NetworkError::ArityMismatch {
                name,
                fanins,
                expected,
            } => write!(
                f,
                "node {name:?} has {fanins} fanins but its function expects {expected}"
            ),
            NetworkError::Cyclic(n) => write!(f, "combinational cycle through node {n:?}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A combinational Boolean network.
///
/// # Examples
///
/// ```
/// use xrta_network::{Network, GateKind};
///
/// let mut net = Network::new("half_adder");
/// let a = net.add_input("a")?;
/// let b = net.add_input("b")?;
/// let sum = net.add_gate("sum", GateKind::Xor, &[a, b])?;
/// let carry = net.add_gate("carry", GateKind::And, &[a, b])?;
/// net.mark_output(sum);
/// net.mark_output(carry);
/// assert_eq!(net.eval(&[true, true]), vec![false, true]);
/// # Ok::<(), xrta_network::NetworkError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    by_name: HashMap<String, NodeId>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Network name (the BLIF `.model` name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes (inputs + gates).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of gate nodes.
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_input()).count()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Node accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this network.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetworkError> {
        let name = name.into();
        let id = self.insert(Node {
            name,
            func: NodeFunc::Input,
            fanins: Vec::new(),
        })?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a library gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateName`] or
    /// [`NetworkError::ArityMismatch`].
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanins: &[NodeId],
    ) -> Result<NodeId, NetworkError> {
        let name = name.into();
        let arity_ok = match kind {
            GateKind::Buf | GateKind::Not => fanins.len() == 1,
            GateKind::Mux => fanins.len() == 3,
            GateKind::Const0 | GateKind::Const1 => fanins.is_empty(),
            _ => !fanins.is_empty() && fanins.len() <= TruthTable::MAX_VARS,
        };
        if !arity_ok {
            return Err(NetworkError::ArityMismatch {
                name,
                fanins: fanins.len(),
                expected: match kind {
                    GateKind::Buf | GateKind::Not => 1,
                    GateKind::Mux => 3,
                    GateKind::Const0 | GateKind::Const1 => 0,
                    _ => 1,
                },
            });
        }
        let table = kind.truth_table(fanins.len());
        self.insert(Node {
            name,
            func: NodeFunc::Gate {
                table,
                kind: Some(kind),
            },
            fanins: fanins.to_vec(),
        })
    }

    /// Adds a gate with an arbitrary local truth table.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateName`] or
    /// [`NetworkError::ArityMismatch`].
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        table: TruthTable,
        fanins: &[NodeId],
    ) -> Result<NodeId, NetworkError> {
        let name = name.into();
        if table.var_count() != fanins.len() {
            return Err(NetworkError::ArityMismatch {
                name,
                fanins: fanins.len(),
                expected: table.var_count(),
            });
        }
        self.insert(Node {
            name,
            func: NodeFunc::Gate { table, kind: None },
            fanins: fanins.to_vec(),
        })
    }

    fn insert(&mut self, node: Node) -> Result<NodeId, NetworkError> {
        if self.by_name.contains_key(&node.name) {
            return Err(NetworkError::DuplicateName(node.name));
        }
        for f in &node.fanins {
            assert!(f.index() < self.nodes.len(), "fanin {f} out of range");
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(node.name.clone(), id);
        self.nodes.push(node);
        Ok(id)
    }

    /// Marks a node as a primary output (idempotent).
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Unmarks a primary output.
    pub fn unmark_output(&mut self, id: NodeId) {
        self.outputs.retain(|&o| o != id);
    }

    /// Topological order over all nodes (inputs first).
    ///
    /// Since nodes can only reference previously inserted nodes, the
    /// creation order is already topological; this returns it.
    pub fn topological_order(&self) -> Vec<NodeId> {
        self.node_ids().collect()
    }

    /// Reverse topological order (outputs-side first).
    pub fn reverse_topological_order(&self) -> Vec<NodeId> {
        let mut v = self.topological_order();
        v.reverse();
        v
    }

    /// Fanout adjacency: for each node, the nodes that read it.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for f in &n.fanins {
                out[f.index()].push(NodeId(i as u32));
            }
        }
        out
    }

    /// Simulates the network on a primary-input assignment (aligned with
    /// [`Network::inputs`]); returns output values aligned with
    /// [`Network::outputs`].
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len() != self.inputs().len()`.
    pub fn eval(&self, input_values: &[bool]) -> Vec<bool> {
        let all = self.eval_all(input_values);
        self.outputs.iter().map(|o| all[o.index()]).collect()
    }

    /// Simulates and returns the value of every node, indexed by node id.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len() != self.inputs().len()`.
    pub fn eval_all(&self, input_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "need one value per primary input"
        );
        let mut values = vec![false; self.nodes.len()];
        for (i, &id) in self.inputs.iter().enumerate() {
            values[id.index()] = input_values[i];
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if let NodeFunc::Gate { table, .. } = &n.func {
                let ins: Vec<bool> = n.fanins.iter().map(|f| values[f.index()]).collect();
                values[i] = table.eval(&ins);
            }
        }
        values
    }

    /// Transitive fanin cone of `roots` (including the roots), as a
    /// sorted list of node ids.
    pub fn transitive_fanin(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            for f in &self.nodes[id.index()].fanins {
                stack.push(*f);
            }
        }
        (0..self.nodes.len())
            .filter(|&i| seen[i])
            .map(NodeId::from_index)
            .collect()
    }

    /// Transitive fanout cone of `roots` (including the roots).
    pub fn transitive_fanout(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let fanouts = self.fanouts();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            for f in &fanouts[id.index()] {
                stack.push(*f);
            }
        }
        (0..self.nodes.len())
            .filter(|&i| seen[i])
            .map(NodeId::from_index)
            .collect()
    }

    /// Extracts the fanin cone of the given nodes as a standalone
    /// network whose primary outputs are exactly `roots` (in order) and
    /// whose primary inputs are the original primary inputs feeding the
    /// cone. This is the `N_FI` construction of §5.1.
    ///
    /// Returns the new network and the mapping from old to new ids for
    /// every copied node.
    pub fn extract_cone(&self, roots: &[NodeId]) -> (Network, HashMap<NodeId, NodeId>) {
        let cone = self.transitive_fanin(roots);
        let mut out = Network::new(format!("{}_cone", self.name));
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for &id in &cone {
            let n = &self.nodes[id.index()];
            let new_id = match &n.func {
                NodeFunc::Input => out
                    .add_input(n.name.clone())
                    .expect("names unique in source"),
                NodeFunc::Gate { table, kind } => {
                    let fanins: Vec<NodeId> = n.fanins.iter().map(|f| map[f]).collect();
                    let mut node = Node {
                        name: n.name.clone(),
                        func: NodeFunc::Gate {
                            table: table.clone(),
                            kind: *kind,
                        },
                        fanins,
                    };
                    // Keep table/kind as-is.
                    let _ = &mut node;
                    out.insert(node).expect("names unique in source")
                }
            };
            map.insert(id, new_id);
        }
        for r in roots {
            out.mark_output(map[r]);
        }
        (out, map)
    }

    /// Builds the `N_FO` network of §5.2: the same network, but with the
    /// given nodes *relabelled as primary inputs* (their fanin logic
    /// removed if no other output needs it).
    ///
    /// Returns the new network plus the mapping from old ids to new ids
    /// for all surviving nodes.
    ///
    /// # Panics
    ///
    /// Panics if any `cut` node is already a primary input.
    pub fn cut_at(&self, cut: &[NodeId]) -> (Network, HashMap<NodeId, NodeId>) {
        for c in cut {
            assert!(
                !self.nodes[c.index()].is_input(),
                "cut node {} is already a primary input",
                self.nodes[c.index()].name
            );
        }
        let cut_set: Vec<bool> = {
            let mut v = vec![false; self.nodes.len()];
            for c in cut {
                v[c.index()] = true;
            }
            v
        };
        // Which nodes are still needed: walk back from the outputs,
        // stopping at cut nodes.
        let mut needed = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if needed[id.index()] {
                continue;
            }
            needed[id.index()] = true;
            if cut_set[id.index()] {
                continue; // becomes an input; don't pull its fanin
            }
            for f in &self.nodes[id.index()].fanins {
                stack.push(*f);
            }
        }
        let mut out = Network::new(format!("{}_fo", self.name));
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for i in 0..self.nodes.len() {
            if !needed[i] {
                continue;
            }
            let id = NodeId(i as u32);
            let n = &self.nodes[i];
            let new_id = if cut_set[i] || n.is_input() {
                out.add_input(n.name.clone()).expect("unique names")
            } else {
                let fanins: Vec<NodeId> = n.fanins.iter().map(|f| map[f]).collect();
                out.insert(Node {
                    name: n.name.clone(),
                    func: n.func.clone(),
                    fanins,
                })
                .expect("unique names")
            };
            map.insert(id, new_id);
        }
        for o in &self.outputs {
            if let Some(&new_id) = map.get(o) {
                out.mark_output(new_id);
            }
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Network {
        let mut net = Network::new("fa");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let cin = net.add_input("cin").unwrap();
        let s1 = net.add_gate("s1", GateKind::Xor, &[a, b]).unwrap();
        let sum = net.add_gate("sum", GateKind::Xor, &[s1, cin]).unwrap();
        let c1 = net.add_gate("c1", GateKind::And, &[a, b]).unwrap();
        let c2 = net.add_gate("c2", GateKind::And, &[s1, cin]).unwrap();
        let cout = net.add_gate("cout", GateKind::Or, &[c1, c2]).unwrap();
        net.mark_output(sum);
        net.mark_output(cout);
        net
    }

    #[test]
    fn full_adder_truth() {
        let net = full_adder();
        for m in 0..8u32 {
            let ins = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            let total = ins.iter().filter(|&&b| b).count();
            let out = net.eval(&ins);
            assert_eq!(out[0], total % 2 == 1, "sum at {m}");
            assert_eq!(out[1], total >= 2, "cout at {m}");
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = Network::new("t");
        net.add_input("a").unwrap();
        assert_eq!(
            net.add_input("a"),
            Err(NetworkError::DuplicateName("a".to_string()))
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let t = TruthTable::var(2, 0);
        assert!(matches!(
            net.add_table("g", t, &[a]),
            Err(NetworkError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn lookup_by_name() {
        let net = full_adder();
        assert!(net.find("sum").is_some());
        assert!(net.find("nonesuch").is_none());
        let id = net.find("cout").unwrap();
        assert_eq!(net.node(id).name, "cout");
    }

    #[test]
    fn cones() {
        let net = full_adder();
        let sum = net.find("sum").unwrap();
        let cone = net.transitive_fanin(&[sum]);
        let names: Vec<&str> = cone.iter().map(|&id| net.node(id).name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "cin", "s1", "sum"]);
        let a = net.find("a").unwrap();
        let fo = net.transitive_fanout(&[a]);
        let names: Vec<&str> = fo.iter().map(|&id| net.node(id).name.as_str()).collect();
        assert_eq!(names, vec!["a", "s1", "sum", "c1", "c2", "cout"]);
    }

    #[test]
    fn extract_cone_standalone() {
        let net = full_adder();
        let sum = net.find("sum").unwrap();
        let (cone, map) = net.extract_cone(&[sum]);
        assert_eq!(cone.inputs().len(), 3);
        assert_eq!(cone.outputs(), &[map[&sum]]);
        // Cone computes a ^ b ^ cin.
        for m in 0..8u32 {
            let ins = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            let expect = ins[0] ^ ins[1] ^ ins[2];
            assert_eq!(cone.eval(&ins), vec![expect]);
        }
    }

    #[test]
    fn cut_relabels_as_inputs() {
        let net = full_adder();
        let s1 = net.find("s1").unwrap();
        let (fo, map) = net.cut_at(&[s1]);
        // s1 must now be an input of the cut network.
        let new_s1 = map[&s1];
        assert!(fo.node(new_s1).is_input());
        // Outputs preserved: sum, cout.
        assert_eq!(fo.outputs().len(), 2);
        // Inputs: a, b, cin (still used by c1) plus s1.
        assert_eq!(fo.inputs().len(), 4);
        // Semantics: with s1 supplied correctly the outputs must match.
        for m in 0..8u32 {
            let ins = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            let s1_val = ins[0] ^ ins[1];
            let expect = net.eval(&ins);
            // fo inputs in declaration order: a, b, cin, s1.
            let got = fo.eval(&[ins[0], ins[1], ins[2], s1_val]);
            assert_eq!(got, expect, "minterm {m}");
        }
    }

    #[test]
    fn eval_output_order_is_declaration_order() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let na = net.add_gate("na", GateKind::Not, &[a]).unwrap();
        // Declare outputs in reverse creation order.
        net.mark_output(na);
        net.mark_output(a);
        assert_eq!(net.eval(&[true]), vec![false, true]);
    }

    #[test]
    fn fanouts_adjacency() {
        let net = full_adder();
        let fanouts = net.fanouts();
        let s1 = net.find("s1").unwrap();
        let names: Vec<&str> = fanouts[s1.index()]
            .iter()
            .map(|&id| net.node(id).name.as_str())
            .collect();
        assert_eq!(names, vec!["sum", "c2"]);
    }
}
