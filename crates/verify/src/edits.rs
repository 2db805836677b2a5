//! Edit-sequence (ECO) differential fuzzing for incremental analysis.
//!
//! The incremental path caches per-cone verdicts keyed by the cone
//! fingerprint and splices them into later reports. Its soundness claim
//! is exactly this: *a verdict computed for a fingerprint in one
//! netlist state may be reused for the same fingerprint in any other
//! state*. This module attacks that claim the way an ECO flow would —
//! by mutating a netlist through a sequence of small engineering
//! changes and checking, after every edit, that a warm cone cache
//! carried across the whole sequence splices an answer whose encoding
//! is byte-identical to the one a cold from-scratch analysis produces.
//!
//! Edits are *name-keyed*, not id-keyed: an [`EditOp`] names the node
//! it touches, and an op whose node has since disappeared (or whose
//! structural precondition no longer holds) is a clean no-op. That
//! makes any *subsequence* of an edit script applicable to the base
//! netlist, which is what lets the shrinker minimise a failing script
//! by dropping edits instead of re-deriving them.

use std::collections::HashMap;

use xrta_core::cone::{analyze_cone, slice_cones, splice};
use xrta_core::{Answer, Budget, SessionOptions, Verdict};
use xrta_network::{GateKind, Network, NodeFunc, NodeId};
use xrta_rng::{mix64, Rng};

use crate::corpus::CorpusEntry;
use crate::fuzz::{drive, Case, FuzzOptions, FuzzReport};
use crate::harness::{base_for, corpus_bases};
use crate::shrink::{minimise, TestCase};

/// One engineering change order, keyed by node *name* so that stale
/// ops degrade to no-ops instead of corrupting the netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Set the named gate's delay override to `ticks`.
    DelayResize {
        /// Gate name.
        node: String,
        /// New delay in ticks.
        ticks: i64,
    },
    /// Replace the named gate's function with an arity-compatible
    /// library kind (fanins unchanged).
    GateSwap {
        /// Gate name.
        node: String,
        /// Replacement kind.
        kind: GateKind,
    },
    /// Reroute fanin `pin` of the named gate to the named source node.
    /// Only sources created earlier than the gate are legal (keeps the
    /// network acyclic by construction order).
    WireReroute {
        /// Gate name.
        node: String,
        /// Fanin position to rewire.
        pin: usize,
        /// New source node name.
        src: String,
    },
    /// Add a buffered duplicate of primary output `output` as a new
    /// primary output with the same required time.
    PoDuplicate {
        /// Output position to duplicate.
        output: usize,
        /// Name for the new buffer node.
        name: String,
    },
    /// Insert a named buffer on the edge into fanin `pin` of the named
    /// gate.
    GateInsert {
        /// Gate name.
        node: String,
        /// Fanin position to buffer.
        pin: usize,
        /// Name for the new buffer node.
        name: String,
    },
    /// Delete the named gate, aliasing its uses to its first fanin.
    GateDelete {
        /// Gate name.
        node: String,
    },
}

impl std::fmt::Display for EditOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditOp::DelayResize { node, ticks } => write!(f, "resize {node}={ticks}"),
            EditOp::GateSwap { node, kind } => write!(f, "swap {node}->{kind:?}"),
            EditOp::WireReroute { node, pin, src } => write!(f, "reroute {node}[{pin}]<-{src}"),
            EditOp::PoDuplicate { output, name } => write!(f, "dup-po {output} as {name}"),
            EditOp::GateInsert { node, pin, name } => write!(f, "insert {name} at {node}[{pin}]"),
            EditOp::GateDelete { node } => write!(f, "delete {node}"),
        }
    }
}

/// A structural rewrite one rebuild pass applies, resolved to ids.
enum NodeEdit<'a> {
    None,
    SwapKind(NodeId, GateKind),
    Reroute(NodeId, usize, NodeId),
    InsertBuf {
        node: NodeId,
        pin: usize,
        name: &'a str,
    },
    Delete(NodeId),
}

/// Rebuilds `net` node by node, applying one [`NodeEdit`]. Returns
/// `None` when the edit is inapplicable (illegal arity, merged
/// outputs, deleting a const gate, …) — the caller treats that as a
/// no-op edit.
fn rebuild(net: &Network, edit: &NodeEdit) -> Option<Network> {
    let mut out = Network::new(net.name().to_string());
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for id in net.node_ids() {
        let n = net.node(id);
        if let NodeEdit::Delete(victim) = edit {
            if id == *victim {
                let target = *n.fanins.first()?;
                let mapped = *map.get(&target)?;
                map.insert(id, mapped);
                continue;
            }
        }
        let new = match &n.func {
            NodeFunc::Input => out.add_input(n.name.clone()).ok()?,
            NodeFunc::Gate { table, kind } => {
                let mut fanins: Vec<NodeId> = n
                    .fanins
                    .iter()
                    .map(|f| map.get(f).copied())
                    .collect::<Option<_>>()?;
                match edit {
                    NodeEdit::Reroute(victim, pin, src) if id == *victim => {
                        fanins[*pin] = *map.get(src)?;
                    }
                    NodeEdit::InsertBuf { node, pin, name } if id == *node => {
                        let buf = out
                            .add_gate((*name).to_string(), GateKind::Buf, &[fanins[*pin]])
                            .ok()?;
                        fanins[*pin] = buf;
                    }
                    _ => {}
                }
                let kind = match edit {
                    NodeEdit::SwapKind(victim, k) if id == *victim => Some(*k),
                    _ => *kind,
                };
                match kind {
                    Some(k) => out.add_gate(n.name.clone(), k, &fanins).ok()?,
                    None => out.add_table(n.name.clone(), table.clone(), &fanins).ok()?,
                }
            }
        };
        map.insert(id, new);
    }
    let new_outputs: Vec<NodeId> = net
        .outputs()
        .iter()
        .map(|o| map.get(o).copied())
        .collect::<Option<_>>()?;
    // Refuse edits that merge two primary outputs into one node: the
    // required-time vector would no longer be index-aligned.
    let mut seen = new_outputs.clone();
    seen.sort();
    seen.dedup();
    if seen.len() != new_outputs.len() {
        return None;
    }
    for &o in &new_outputs {
        out.mark_output(o);
    }
    Some(out)
}

/// Applies one edit to a corpus state. `None` means the edit was a
/// no-op (stale name, illegal arity, merged outputs) and the state is
/// unchanged; shrunk subsequences stay applicable because of this.
pub fn apply_edit(entry: &CorpusEntry, op: &EditOp) -> Option<CorpusEntry> {
    let net = &entry.case.net;
    let gate_of = |name: &str| -> Option<NodeId> {
        let id = net.find(name)?;
        (!net.node(id).is_input()).then_some(id)
    };
    let mut next = match op {
        EditOp::DelayResize { node, ticks } => {
            gate_of(node)?;
            let mut e = entry.clone();
            e.delays.insert(node.clone(), *ticks);
            e
        }
        EditOp::GateSwap { node, kind } => {
            let id = gate_of(node)?;
            let new_net = rebuild(net, &NodeEdit::SwapKind(id, *kind))?;
            CorpusEntry {
                case: TestCase {
                    net: new_net,
                    req: entry.case.req.clone(),
                },
                delays: entry.delays.clone(),
                origin: entry.origin.clone(),
            }
        }
        EditOp::WireReroute { node, pin, src } => {
            let id = gate_of(node)?;
            let src_id = net.find(src)?;
            if *pin >= net.node(id).fanins.len() || src_id.index() >= id.index() {
                return None;
            }
            let new_net = rebuild(net, &NodeEdit::Reroute(id, *pin, src_id))?;
            CorpusEntry {
                case: TestCase {
                    net: new_net,
                    req: entry.case.req.clone(),
                },
                delays: entry.delays.clone(),
                origin: entry.origin.clone(),
            }
        }
        EditOp::PoDuplicate { output, name } => {
            if *output >= net.outputs().len() || net.find(name).is_some() {
                return None;
            }
            let mut new_net = rebuild(net, &NodeEdit::None)?;
            let root = new_net.outputs()[*output];
            let buf = new_net
                .add_gate(name.clone(), GateKind::Buf, &[root])
                .ok()?;
            new_net.mark_output(buf);
            let mut req = entry.case.req.clone();
            req.push(req[*output]);
            CorpusEntry {
                case: TestCase { net: new_net, req },
                delays: entry.delays.clone(),
                origin: entry.origin.clone(),
            }
        }
        EditOp::GateInsert { node, pin, name } => {
            let id = gate_of(node)?;
            if *pin >= net.node(id).fanins.len() || net.find(name).is_some() {
                return None;
            }
            let new_net = rebuild(
                net,
                &NodeEdit::InsertBuf {
                    node: id,
                    pin: *pin,
                    name: name.as_str(),
                },
            )?;
            CorpusEntry {
                case: TestCase {
                    net: new_net,
                    req: entry.case.req.clone(),
                },
                delays: entry.delays.clone(),
                origin: entry.origin.clone(),
            }
        }
        EditOp::GateDelete { node } => {
            let id = gate_of(node)?;
            let new_net = rebuild(net, &NodeEdit::Delete(id))?;
            CorpusEntry {
                case: TestCase {
                    net: new_net,
                    req: entry.case.req.clone(),
                },
                delays: entry.delays.clone(),
                origin: entry.origin.clone(),
            }
        }
    };
    // Deleted nodes must not linger in the overrides map: the corpus
    // serialiser round-trips it and the parser rejects unknown names.
    let names: std::collections::HashSet<String> = next
        .case
        .net
        .node_ids()
        .map(|id| next.case.net.node(id).name.clone())
        .collect();
    next.delays.retain(|name, _| names.contains(name));
    Some(next)
}

/// Applies a whole edit script, skipping inapplicable ops. Returns the
/// state after each applied-or-skipped edit (`states[0]` is the base).
pub fn apply_sequence(base: &CorpusEntry, edits: &[EditOp]) -> Vec<CorpusEntry> {
    let mut states = vec![base.clone()];
    for op in edits {
        let cur = states.last().unwrap();
        let next = apply_edit(cur, op).unwrap_or_else(|| cur.clone());
        states.push(next);
    }
    states
}

/// Draws one random edit applicable (in expectation) to `entry`.
/// `fresh` is a monotone counter used to mint collision-free node
/// names for inserts and PO duplicates.
pub fn random_edit(rng: &mut Rng, entry: &CorpusEntry, fresh: &mut usize) -> EditOp {
    let net = &entry.case.net;
    let gates: Vec<NodeId> = net
        .node_ids()
        .filter(|&id| !net.node(id).is_input() && !net.node(id).fanins.is_empty())
        .collect();
    let mut mint = || {
        *fresh += 1;
        format!("eco{}", *fresh)
    };
    for _ in 0..8 {
        let choice = rng.range(0, 6);
        match choice {
            0 if !gates.is_empty() => {
                let id = *rng.pick(&gates);
                return EditOp::DelayResize {
                    node: net.node(id).name.clone(),
                    ticks: rng.range_i64(1, 5),
                };
            }
            1 if !gates.is_empty() => {
                let id = *rng.pick(&gates);
                let arity = net.node(id).fanins.len();
                let kinds: &[GateKind] = if arity == 1 {
                    &[GateKind::Buf, GateKind::Not]
                } else if arity == 3 {
                    &[
                        GateKind::And,
                        GateKind::Or,
                        GateKind::Nand,
                        GateKind::Nor,
                        GateKind::Xor,
                        GateKind::Xnor,
                        GateKind::Mux,
                    ]
                } else {
                    &[
                        GateKind::And,
                        GateKind::Or,
                        GateKind::Nand,
                        GateKind::Nor,
                        GateKind::Xor,
                        GateKind::Xnor,
                    ]
                };
                return EditOp::GateSwap {
                    node: net.node(id).name.clone(),
                    kind: *rng.pick(kinds),
                };
            }
            2 if !gates.is_empty() => {
                let id = *rng.pick(&gates);
                if id.index() == 0 {
                    continue;
                }
                let pin = rng.range(0, net.node(id).fanins.len());
                let src = NodeId::from_index(rng.range(0, id.index()));
                return EditOp::WireReroute {
                    node: net.node(id).name.clone(),
                    pin,
                    src: net.node(src).name.clone(),
                };
            }
            3 => {
                return EditOp::PoDuplicate {
                    output: rng.range(0, net.outputs().len()),
                    name: mint(),
                };
            }
            4 if !gates.is_empty() => {
                let id = *rng.pick(&gates);
                return EditOp::GateInsert {
                    node: net.node(id).name.clone(),
                    pin: rng.range(0, net.node(id).fanins.len()),
                    name: mint(),
                };
            }
            5 if gates.len() > 1 => {
                let id = *rng.pick(&gates);
                return EditOp::GateDelete {
                    node: net.node(id).name.clone(),
                };
            }
            _ => continue,
        }
    }
    EditOp::PoDuplicate {
        output: 0,
        name: mint(),
    }
}

/// Deterministic analysis options for the differential: unlimited
/// budget, no wall-clock deadline, so the governed ladder never
/// degrades and the report bytes depend only on the descriptor.
fn differential_options() -> SessionOptions {
    SessionOptions {
        budget: Budget::unlimited(),
        timeout: None,
        fallback: true,
        ..SessionOptions::default()
    }
}

/// Walks a state sequence with a warm fingerprint-keyed cone cache
/// carried across states (the incremental path) and a cold fresh
/// analysis per state (the oracle). Returns the index of the first
/// state whose warm-spliced answer differs from the cold one in its
/// wire encoding ([`Answer::encode_fields`], the bytes a `delta`
/// response carries), or `None` when the whole sequence agrees.
pub fn first_disagreement(states: &[CorpusEntry]) -> Option<usize> {
    let opts = differential_options();
    let mut warm: HashMap<u128, Answer> = HashMap::new();
    for (k, st) in states.iter().enumerate() {
        let model = st.delay_model();
        let net = &st.case.net;
        let req = &st.case.req;
        let slices = slice_cones(net, &model, req);
        let mut warm_verdicts = Vec::with_capacity(slices.len());
        let mut cold_verdicts = Vec::with_capacity(slices.len());
        for s in &slices {
            let cold =
                analyze_cone(s, Verdict::Approx2, &opts).expect("unlimited budget cannot exhaust");
            let reused = warm
                .entry(s.fingerprint)
                .or_insert_with(|| cold.clone())
                .clone();
            warm_verdicts.push(reused);
            cold_verdicts.push(cold);
        }
        let w = splice(net, &model, req, Verdict::Approx2, &slices, &warm_verdicts);
        let c = splice(net, &model, req, Verdict::Approx2, &slices, &cold_verdicts);
        if w.encode_fields() != c.encode_fields() {
            return Some(k);
        }
    }
    None
}

/// Minimises a failing edit script: truncate to the failing prefix,
/// then greedily drop single edits (`minimise`) while `fails` still
/// reports a disagreement. `fails` receives a candidate script and
/// returns the failing state index, if any.
pub fn shrink_edits(
    edits: &[EditOp],
    step: usize,
    mut fails: impl FnMut(&[EditOp]) -> Option<usize>,
) -> (Vec<EditOp>, usize) {
    let drop_one = |script: &Vec<EditOp>| {
        (0..script.len())
            .map(|i| {
                let mut cand = script.clone();
                cand.remove(i);
                cand
            })
            .collect()
    };
    let prefix = edits[..step.min(edits.len())].to_vec();
    minimise(prefix, step, drop_one, |cand| fails(cand))
}

/// The ECO differential: runs `opts.seeds` seeded edit scripts of 1–5
/// edits through `fuzz::drive`, checking every state with
/// [`first_disagreement`]. Bases alternate between the entries already
/// in `opts.corpus_dir` (all of them, whatever their input count) and
/// fresh random circuits. A failure is shrunk to a minimal edit script
/// and filed as an `eco_seed_NNNN_before`/`_after` pair. The tally
/// counts applied edits.
pub fn eco_fuzz(opts: &FuzzOptions, progress: impl FnMut(&str)) -> FuzzReport {
    let corpus = corpus_bases(opts, usize::MAX);
    drive(opts, "sequence", progress, |index, progress| {
        let mut rng = Rng::seed_from_u64(mix64(opts.base_seed ^ mix64(index ^ 0xEC0)));
        let base = base_for(&corpus, opts, 0xEC0, index);
        let count = rng.range(1, 6);
        let mut fresh = 0usize;
        let mut applied = 0;
        let mut edits = Vec::with_capacity(count);
        let mut cursor = base.clone();
        for _ in 0..count {
            let op = random_edit(&mut rng, &cursor, &mut fresh);
            if let Some(next) = apply_edit(&cursor, &op) {
                cursor = next;
                applied += 1;
            }
            edits.push(op);
        }
        let Some(step) = first_disagreement(&apply_sequence(&base, &edits)) else {
            return Case {
                tally: applied,
                ..Case::default()
            };
        };
        progress(&format!(
            "warm/cold reports diverged at step {step} of {}",
            edits.len()
        ));
        let (shrunk, shrunk_step) = shrink_edits(&edits, step, |candidate| {
            first_disagreement(&apply_sequence(&base, candidate))
        });
        let script = shrunk
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        progress(&format!("shrunk to {} edit(s): {script}", shrunk.len()));
        let states = apply_sequence(&base, &shrunk);
        let origin = format!(
            "eco fuzz sequence {index} base {:#x} ({script})",
            opts.base_seed
        );
        let mut before = states[shrunk_step.saturating_sub(1)].clone();
        before.origin = origin.clone();
        let mut after = states[shrunk_step].clone();
        after.origin = origin;
        Case {
            tally: applied,
            failure: Some(format!(
                "diverged at step {shrunk_step} | {} edit(s): {script}",
                shrunk.len()
            )),
            entries: vec![
                (format!("eco_seed_{index:04}_before"), before),
                (format!("eco_seed_{index:04}_after"), after),
            ],
        }
    })
}

/// Replays one filed before/after ECO pair: warms the cone cache on
/// `before`, then checks `after` composes byte-identically against a
/// cold analysis. Used by the corpus regression test.
pub fn replay_pair(before: &CorpusEntry, after: &CorpusEntry) -> Result<(), String> {
    match first_disagreement(&[before.clone(), after.clone()]) {
        None => Ok(()),
        Some(k) => Err(format!(
            "warm/cold reports diverged at state {k} ({})",
            if k == 0 { "before" } else { "after" }
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use xrta_circuits::c17;
    use xrta_timing::{topological_delays, UnitDelay};

    fn c17_entry() -> CorpusEntry {
        let net = c17();
        let req = topological_delays(&net, &UnitDelay);
        CorpusEntry {
            case: TestCase { net, req },
            delays: BTreeMap::new(),
            origin: "test".to_string(),
        }
    }

    #[test]
    fn each_operator_applies_or_noops_cleanly() {
        let base = c17_entry();
        let gates = base.case.net.gate_count();

        let resized = apply_edit(
            &base,
            &EditOp::DelayResize {
                node: "G10".into(),
                ticks: 3,
            },
        )
        .unwrap();
        assert_eq!(resized.delays.get("G10"), Some(&3));

        let swapped = apply_edit(
            &base,
            &EditOp::GateSwap {
                node: "G10".into(),
                kind: GateKind::And,
            },
        )
        .unwrap();
        let g10 = swapped.case.net.find("G10").unwrap();
        assert!(matches!(
            swapped.case.net.node(g10).func,
            NodeFunc::Gate {
                kind: Some(GateKind::And),
                ..
            }
        ));

        let inserted = apply_edit(
            &base,
            &EditOp::GateInsert {
                node: "G22".into(),
                pin: 0,
                name: "eco1".into(),
            },
        )
        .unwrap();
        assert_eq!(inserted.case.net.gate_count(), gates + 1);
        assert!(inserted.case.net.find("eco1").is_some());

        let duped = apply_edit(
            &base,
            &EditOp::PoDuplicate {
                output: 0,
                name: "eco2".into(),
            },
        )
        .unwrap();
        assert_eq!(
            duped.case.net.outputs().len(),
            base.case.net.outputs().len() + 1
        );
        assert_eq!(duped.case.req.len(), base.case.req.len() + 1);
        assert_eq!(duped.case.req.last(), duped.case.req.first());

        // G10 feeds only output G22, so deleting it aliases G22's pin
        // to G10's first fanin and drops one gate.
        let deleted = apply_edit(&base, &EditOp::GateDelete { node: "G10".into() }).unwrap();
        assert_eq!(deleted.case.net.gate_count(), gates - 1);
        assert!(deleted.case.net.find("G10").is_none());

        // Stale names are clean no-ops.
        assert!(apply_edit(
            &base,
            &EditOp::GateDelete {
                node: "nope".into()
            }
        )
        .is_none());
        assert!(apply_edit(
            &base,
            &EditOp::DelayResize {
                node: "nope".into(),
                ticks: 2
            }
        )
        .is_none());
        // Swapping a 2-input gate to Mux is arity-illegal: no-op.
        assert!(apply_edit(
            &base,
            &EditOp::GateSwap {
                node: "G10".into(),
                kind: GateKind::Mux
            }
        )
        .is_none());
    }

    #[test]
    fn delete_prunes_stale_delay_overrides() {
        let mut base = c17_entry();
        base.delays.insert("G10".to_string(), 4);
        let deleted = apply_edit(&base, &EditOp::GateDelete { node: "G10".into() }).unwrap();
        assert!(!deleted.delays.contains_key("G10"));
        // The filed entry must round-trip: the parser rejects overrides
        // naming unknown nodes.
        let text = crate::corpus::to_bench(&deleted);
        crate::corpus::parse_entry(&text).unwrap();
    }

    #[test]
    fn edit_scripts_replay_deterministically() {
        let base = c17_entry();
        let run = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let mut fresh = 0usize;
            let mut edits = Vec::new();
            let mut cursor = base.clone();
            for _ in 0..5 {
                let op = random_edit(&mut rng, &cursor, &mut fresh);
                if let Some(next) = apply_edit(&cursor, &op) {
                    cursor = next;
                }
                edits.push(op);
            }
            (edits, crate::corpus::to_bench(&cursor))
        };
        let (e1, s1) = run(42);
        let (e2, s2) = run(42);
        assert_eq!(e1, e2);
        assert_eq!(s1, s2);
        let (e3, _) = run(43);
        assert_ne!(e1, e3, "different seeds draw different scripts");
    }

    #[test]
    fn warm_and_cold_reports_agree_across_an_edit_sequence() {
        let base = c17_entry();
        let edits = vec![
            EditOp::DelayResize {
                node: "G10".into(),
                ticks: 3,
            },
            EditOp::GateInsert {
                node: "G22".into(),
                pin: 1,
                name: "eco1".into(),
            },
            EditOp::PoDuplicate {
                output: 1,
                name: "eco2".into(),
            },
            EditOp::GateSwap {
                node: "G16".into(),
                kind: GateKind::Nor,
            },
        ];
        let states = apply_sequence(&base, &edits);
        assert_eq!(states.len(), edits.len() + 1);
        assert_eq!(first_disagreement(&states), None);
        assert!(replay_pair(&states[0], &states[states.len() - 1]).is_ok());
    }

    #[test]
    fn shrinker_minimises_against_an_artificial_predicate() {
        let edits = vec![
            EditOp::DelayResize {
                node: "a".into(),
                ticks: 1,
            },
            EditOp::GateDelete { node: "b".into() },
            EditOp::DelayResize {
                node: "c".into(),
                ticks: 2,
            },
            EditOp::GateDelete { node: "d".into() },
        ];
        // "Fails" iff the script still contains a GateDelete; the
        // failing step is the position of the first one.
        let fails = |script: &[EditOp]| {
            script
                .iter()
                .position(|e| matches!(e, EditOp::GateDelete { .. }))
                .map(|p| p + 1)
        };
        let (shrunk, step) = shrink_edits(&edits, 4, fails);
        assert_eq!(shrunk.len(), 1);
        assert!(matches!(shrunk[0], EditOp::GateDelete { .. }));
        assert_eq!(step, 1);
    }

    #[test]
    fn small_eco_fuzz_run_is_clean() {
        let opts = FuzzOptions {
            seeds: 6,
            base_seed: 0xEC0,
            max_inputs: 5,
            ..FuzzOptions::default()
        };
        let mut lines = Vec::new();
        let report = eco_fuzz(&opts, |l| lines.push(l.to_string()));
        assert_eq!(report.seeds_run, 6);
        assert!(report.tally > 0, "some edits must apply");
        assert!(
            report.failures.is_empty(),
            "incremental differential failed: {lines:?} {:?}",
            report.failures
        );
    }

    #[test]
    fn po_duplicate_keeps_req_alignment() {
        let base = c17_entry();
        let duped = apply_edit(
            &base,
            &EditOp::PoDuplicate {
                output: 1,
                name: "eco9".into(),
            },
        )
        .unwrap();
        assert_eq!(duped.case.req.len(), duped.case.net.outputs().len());
        assert_eq!(duped.case.req[2], base.case.req[1]);
        // And the duplicated cone is isomorphic modulo the extra buf:
        // analysis still succeeds end to end.
        let model = duped.delay_model();
        let slices = slice_cones(&duped.case.net, &model, &duped.case.req);
        assert_eq!(slices.len(), 3);
    }
}
