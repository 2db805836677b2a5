//! Cone-granular incremental analysis (§5 N_FI machinery).
//!
//! A production timing service sees streams of near-identical netlists
//! — one gate resized, one wire rerouted. Whole-request caching treats
//! every delta as a full recompute; this module gives the unit of reuse
//! the paper's §5 subcircuit machinery suggests: the **fanin cone** of
//! each primary output.
//!
//! [`slice_cones`] cuts a network into one [`ConeSlice`] per output.
//! Each slice carries a *canonical* rebuild of its cone — nodes
//! renumbered by a deterministic post-order DFS that follows fanins in
//! declaration order — plus a textual descriptor over that canonical
//! form: per-node truth-table bits, fanin indices, delay ticks, and the
//! output's required time. Names and global input positions never enter
//! the descriptor, so the fingerprint (FNV-1a 128 of the descriptor) is
//! stable under gate renaming and primary-input reordering, while any
//! cone-local change — structure, delay, or deadline — changes it.
//!
//! Because the canonical cone is itself a [`Network`], a cached verdict
//! is a pure function of the fingerprint: [`analyze_cone`] runs the
//! governed session ladder on the canonical cone, so two structurally
//! identical cones (even in *different* netlists, or two isomorphic
//! outputs of the same netlist) share one cached answer. [`splice`]
//! folds per-cone answers back into a whole-netlist one, lifting each
//! cone-local witness point onto the full input list over the
//! classical topological baseline. Both speak the session's one answer
//! record, [`Answer`], so a cone answer is cached, and a spliced answer
//! compared and sent, in its one encoding.
//!
//! Soundness of the splice: each cone is analysed against its own
//! output's deadline by the same sound ladder the whole-net path uses,
//! and inputs outside a cone cannot affect that output at all, so the
//! topological baseline reported there is conservative. A delta request
//! therefore composes to exactly what a cold cone-granular run
//! produces — byte for byte — which is what `crates/verify`'s
//! edit-sequence differential fuzzer checks.

use std::collections::HashMap;

use xrta_network::{Network, NodeFunc, NodeId, TruthTable};
use xrta_timing::{required_times, tokens, DelayModel, TableDelay, Time};

use crate::governor::AnalysisError;
use crate::session::{run_with_fallback, Answer, SessionOptions, Verdict};

/// One output's fanin cone in canonical form.
#[derive(Clone, Debug)]
pub struct ConeSlice {
    /// Index of the output this cone drives (into `net.outputs()`).
    pub output: usize,
    /// FNV-1a 128 over [`ConeSlice::descriptor`].
    pub fingerprint: u128,
    /// Canonical textual form: structure + delays + required time.
    /// Two cones with equal descriptors have identical analyses.
    pub descriptor: String,
    /// The canonical cone network: one output, nodes named by
    /// canonical index, built in post-order DFS order.
    pub net: Network,
    /// Max delay ticks per canonical node (index-aligned; 0 for PIs).
    pub ticks: Vec<i64>,
    /// For each canonical input position, the global input index it
    /// came from (into the original `net.inputs()`).
    pub inputs: Vec<usize>,
    /// Required time at this cone's output.
    pub req: Time,
}

impl ConeSlice {
    /// Estimated heap bytes this slice holds: the canonical descriptor
    /// string plus the per-node and per-input payloads. Used by serve's
    /// delta path to charge sliced cones on the process meter's `Cone`
    /// account while they are alive.
    pub fn footprint(&self) -> u64 {
        // Per canonical node: the `Network` node record (name string,
        // kind, fanin list) is ~96 bytes for typical gate arities, plus
        // the 8-byte tick entry.
        const PER_NODE: usize = 104;
        (self.descriptor.capacity()
            + self.net.node_count() * PER_NODE
            + self.inputs.len() * std::mem::size_of::<usize>()) as u64
    }

    /// The cone's delay table over its canonical nodes, from
    /// [`ConeSlice::ticks`].
    pub fn delays(&self) -> TableDelay {
        let mut model = TableDelay::with_default(&self.net, 0);
        for (idx, &t) in self.ticks.iter().enumerate() {
            model.set(NodeId::from_index(idx), t);
        }
        model
    }
}

/// Truth-table bits as hex nibbles, minterm 0 in the lowest bit.
fn table_hex(t: &TruthTable) -> String {
    let minterms = 1usize << t.var_count();
    let mut out = String::new();
    let mut nibble = 0u8;
    for m in 0..minterms {
        if t.bit(m) {
            nibble |= 1 << (m % 4);
        }
        if m % 4 == 3 {
            out.push(char::from_digit(nibble as u32, 16).unwrap());
            nibble = 0;
        }
    }
    if !minterms.is_multiple_of(4) {
        out.push(char::from_digit(nibble as u32, 16).unwrap());
    }
    out
}

/// Cuts `net` into one canonical [`ConeSlice`] per primary output.
///
/// # Panics
///
/// Panics if `req.len() != net.outputs().len()`.
pub fn slice_cones<D: DelayModel>(net: &Network, model: &D, req: &[Time]) -> Vec<ConeSlice> {
    assert_eq!(req.len(), net.outputs().len(), "required-time width");
    let input_pos: HashMap<NodeId, usize> = net
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    net.outputs()
        .iter()
        .enumerate()
        .map(|(k, &root)| slice_one(net, model, &input_pos, k, root, req[k]))
        .collect()
}

fn slice_one<D: DelayModel>(
    net: &Network,
    model: &D,
    input_pos: &HashMap<NodeId, usize>,
    output: usize,
    root: NodeId,
    req: Time,
) -> ConeSlice {
    // Iterative post-order DFS, fanins visited in declaration order:
    // children always precede parents, so the canonical order is
    // topological and independent of names and global input positions.
    let mut order: Vec<NodeId> = Vec::new();
    let mut canon: HashMap<NodeId, usize> = HashMap::new();
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    while let Some(&mut (id, ref mut next)) = stack.last_mut() {
        if canon.contains_key(&id) {
            stack.pop();
            continue;
        }
        let fanins = &net.node(id).fanins;
        if *next < fanins.len() {
            let f = fanins[*next];
            *next += 1;
            if !canon.contains_key(&f) {
                stack.push((f, 0));
            }
        } else {
            canon.insert(id, order.len());
            order.push(id);
            stack.pop();
        }
    }

    let mut cone = Network::new("cone");
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut ticks = Vec::with_capacity(order.len());
    let mut inputs = Vec::new();
    let mut descriptor = format!("cone v1\nreq {}\n", tokens::encode_times(&[req]));
    for (idx, &id) in order.iter().enumerate() {
        let n = net.node(id);
        let new = match &n.func {
            NodeFunc::Input => {
                descriptor.push_str("i\n");
                ticks.push(0);
                inputs.push(input_pos[&id]);
                cone.add_input(format!("c{idx}"))
                    .expect("fresh canonical name")
            }
            NodeFunc::Gate { table, kind } => {
                let t = model.delay(net, id);
                descriptor.push_str(&format!(
                    "g {} {} {}",
                    table.var_count(),
                    table_hex(table),
                    t
                ));
                let fanins: Vec<NodeId> = n
                    .fanins
                    .iter()
                    .map(|f| {
                        descriptor.push_str(&format!(" {}", canon[f]));
                        map[f]
                    })
                    .collect();
                descriptor.push('\n');
                ticks.push(t);
                // A library gate stays one: its kind gives the χ
                // encoders its prime covers without Quine–McCluskey.
                match kind {
                    Some(k) => cone.add_gate(format!("c{idx}"), *k, &fanins),
                    None => cone.add_table(format!("c{idx}"), table.clone(), &fanins),
                }
                .expect("canonical rebuild preserves validity")
            }
        };
        map.insert(id, new);
    }
    cone.mark_output(map[&root]);
    let fingerprint = xrta_rng::fnv1a128(descriptor.as_bytes());
    ConeSlice {
        output,
        fingerprint,
        descriptor,
        net: cone,
        ticks,
        inputs,
        req,
    }
}

/// Runs the governed session ladder on one canonical cone and returns
/// its [`Answer`]: `req` is the cone's one required time, and the
/// points range over the cone's canonical inputs.
///
/// The answer depends only on the slice's descriptor (and the budget in
/// `options`), which is what makes cone-level caching sound: equal
/// fingerprints ⇒ equal canonical cones ⇒ equal verdicts.
pub fn analyze_cone(
    slice: &ConeSlice,
    requested: Verdict,
    options: &SessionOptions,
) -> Result<Answer, AnalysisError> {
    let model = slice.delays();
    Ok(run_with_fallback(&slice.net, &model, &[slice.req], requested, options)?.digest())
}

/// Composes per-cone answers into one whole-netlist [`Answer`]: the
/// most degraded cone rung, non-trivial when any cone is, and the first
/// (by output order) cone's degradation reason. Each cone point becomes
/// one full-width row, the topological requirement overlaid with the
/// cone's values at its own input positions; a cone without points
/// contributes the plain topological row.
///
/// `slices` and `verdicts` must be index-aligned (one pair per output,
/// as produced by [`slice_cones`] + [`analyze_cone`]).
pub fn splice<D: DelayModel>(
    net: &Network,
    model: &D,
    req: &[Time],
    requested: Verdict,
    slices: &[ConeSlice],
    verdicts: &[Answer],
) -> Answer {
    assert_eq!(slices.len(), verdicts.len(), "one verdict per cone");
    let all_req = required_times(net, model, req);
    let r_bottom: Vec<Time> = net.inputs().iter().map(|i| all_req[i.index()]).collect();
    let mut out = Answer {
        requested,
        verdict: requested,
        nontrivial: false,
        req: req.to_vec(),
        points: Vec::new(),
        degraded_reason: String::new(),
    };
    for (slice, v) in slices.iter().zip(verdicts) {
        out.verdict = out.verdict.max(v.verdict);
        out.nontrivial |= v.nontrivial;
        if out.degraded_reason.is_empty() {
            out.degraded_reason.clone_from(&v.degraded_reason);
        }
        if v.points.is_empty() {
            out.points.push(r_bottom.clone());
            continue;
        }
        for p in &v.points {
            let mut row = r_bottom.clone();
            for (ci, &gi) in slice.inputs.iter().enumerate() {
                row[gi] = p[ci];
            }
            out.points.push(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::{c17, fig4, iscas_rows};
    use xrta_network::GateKind;
    use xrta_timing::{topological_delays, UnitDelay};

    use crate::approx2::{approx2_required_times, Approx2Options};

    /// Rebuilds `net` with the primary inputs declared in reverse order
    /// and every node renamed — structure, outputs and delays intact.
    fn permute_and_rename(net: &Network) -> Network {
        let mut out = Network::new(net.name().to_string());
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for (k, &pi) in net.inputs().iter().rev().enumerate() {
            map.insert(pi, out.add_input(format!("p{k}")).unwrap());
        }
        for id in net.node_ids() {
            let n = net.node(id);
            if let NodeFunc::Gate { table, .. } = &n.func {
                let fanins: Vec<NodeId> = n.fanins.iter().map(|f| map[f]).collect();
                map.insert(
                    id,
                    out.add_table(format!("r{}", id.index()), table.clone(), &fanins)
                        .unwrap(),
                );
            }
        }
        for &o in net.outputs() {
            out.mark_output(map[&o]);
        }
        out
    }

    fn fingerprints(net: &Network) -> Vec<u128> {
        let req = topological_delays(net, &UnitDelay);
        slice_cones(net, &UnitDelay, &req)
            .iter()
            .map(|s| s.fingerprint)
            .collect()
    }

    #[test]
    fn stable_under_pi_permutation_and_gate_renaming() {
        for net in [c17(), fig4()] {
            let twisted = permute_and_rename(&net);
            assert_eq!(fingerprints(&net), fingerprints(&twisted), "{}", net.name());
        }
    }

    #[test]
    fn delay_scaling_changes_every_gate_cone() {
        let net = c17();
        let req = topological_delays(&net, &UnitDelay);
        let unit = slice_cones(&net, &UnitDelay, &req);
        let double = TableDelay::with_default(&net, 2);
        let scaled = slice_cones(&net, &double, &req);
        for (a, b) in unit.iter().zip(&scaled) {
            assert_ne!(a.fingerprint, b.fingerprint, "output {}", a.output);
        }
    }

    #[test]
    fn required_time_change_changes_the_fingerprint() {
        let net = fig4();
        let a = slice_cones(&net, &UnitDelay, &[Time::new(2)]);
        let b = slice_cones(&net, &UnitDelay, &[Time::new(3)]);
        assert_ne!(a[0].fingerprint, b[0].fingerprint);
    }

    #[test]
    fn footprint_tracks_cone_size() {
        let small = slice_cones(&fig4(), &UnitDelay, &[Time::new(2)]);
        let c17 = c17();
        let req = vec![Time::new(10); c17.outputs().len()];
        let big = slice_cones(&c17, &UnitDelay, &req);
        for s in small.iter().chain(&big) {
            assert!(s.footprint() > 0);
        }
        // A c17 output cone strictly contains more nodes than the fig4
        // cone, so its estimate must be larger.
        assert!(big[0].footprint() > small[0].footprint());
    }

    #[test]
    fn cone_local_change_dirties_only_its_cones() {
        // c17 has two outputs; g10 feeds only output 22's cone.
        let net = c17();
        let mut edited = Network::new("c17");
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        let mut first_gate_swapped = false;
        for id in net.node_ids() {
            let n = net.node(id);
            let new = match &n.func {
                NodeFunc::Input => edited.add_input(n.name.clone()).unwrap(),
                NodeFunc::Gate { table, .. } => {
                    let fanins: Vec<NodeId> = n.fanins.iter().map(|f| map[f]).collect();
                    if !first_gate_swapped {
                        first_gate_swapped = true;
                        edited
                            .add_gate(n.name.clone(), GateKind::And, &fanins)
                            .unwrap()
                    } else {
                        edited
                            .add_table(n.name.clone(), table.clone(), &fanins)
                            .unwrap()
                    }
                }
            };
            map.insert(id, new);
        }
        for &o in net.outputs() {
            edited.mark_output(map[&o]);
        }
        let before = fingerprints(&net);
        let after = fingerprints(&edited);
        // c17's first gate (10 = NAND(1,3)) feeds output 22 only.
        assert_ne!(before[0], after[0], "dirty cone must change");
        assert_eq!(before[1], after[1], "untouched cone must not");
    }

    #[test]
    fn iscas_cones_have_no_fingerprint_collisions() {
        let mut seen: HashMap<u128, String> = HashMap::new();
        let mut total = 0usize;
        for row in iscas_rows() {
            let net = row.build();
            let req = topological_delays(&net, &UnitDelay);
            for s in slice_cones(&net, &UnitDelay, &req) {
                total += 1;
                if let Some(prev) = seen.get(&s.fingerprint) {
                    assert_eq!(
                        prev, &s.descriptor,
                        "{}: fingerprint collision between different descriptors",
                        row.name
                    );
                } else {
                    seen.insert(s.fingerprint, s.descriptor.clone());
                }
            }
        }
        assert!(total > 500, "smoke needs a meaningful population");
        // The suite's repeated blocks make isomorphic-cone sharing the
        // common case — the very effect the cone cache exploits.
        assert!(seen.len() >= 50 && seen.len() < total);
    }

    #[test]
    fn single_output_splice_matches_whole_net_approx2() {
        let net = fig4();
        let req = vec![Time::new(2)];
        let slices = slice_cones(&net, &UnitDelay, &req);
        let verdicts: Vec<Answer> = slices
            .iter()
            .map(|s| analyze_cone(s, Verdict::Approx2, &SessionOptions::default()).unwrap())
            .collect();
        let spliced = splice(&net, &UnitDelay, &req, Verdict::Approx2, &slices, &verdicts);
        let whole = approx2_required_times(&net, &UnitDelay, &req, Approx2Options::default());
        let mut want = whole.maximal.clone();
        want.sort();
        let mut got = spliced.points.clone();
        got.sort();
        assert_eq!(got, want, "one output ⇒ cone == whole net");
        assert_eq!(spliced.nontrivial, whole.has_nontrivial_requirement());
        assert_eq!(spliced.verdict, Verdict::Approx2);
    }

    #[test]
    fn isomorphic_cones_share_a_fingerprint_and_verdict() {
        // Two structurally identical outputs over different inputs.
        let mut net = Network::new("twins");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let d = net.add_input("d").unwrap();
        let g1 = net.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = net.add_gate("g2", GateKind::And, &[c, d]).unwrap();
        net.mark_output(g1);
        net.mark_output(g2);
        let req = vec![Time::new(1), Time::new(1)];
        let slices = slice_cones(&net, &UnitDelay, &req);
        assert_eq!(slices[0].fingerprint, slices[1].fingerprint);
        assert_ne!(slices[0].inputs, slices[1].inputs, "lift maps differ");
        let v = analyze_cone(&slices[0], Verdict::Approx2, &SessionOptions::default()).unwrap();
        let spliced = splice(
            &net,
            &UnitDelay,
            &req,
            Verdict::Approx2,
            &slices,
            &[v.clone(), v],
        );
        assert_eq!(spliced.points.len() % 2, 0, "both cones contribute");
    }

    #[test]
    fn splice_encoding_is_deterministic() {
        let net = c17();
        let req = topological_delays(&net, &UnitDelay);
        let run = || {
            let slices = slice_cones(&net, &UnitDelay, &req);
            let verdicts: Vec<Answer> = slices
                .iter()
                .map(|s| analyze_cone(s, Verdict::Approx2, &SessionOptions::default()).unwrap())
                .collect();
            splice(&net, &UnitDelay, &req, Verdict::Approx2, &slices, &verdicts).encode_fields()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn canonical_cones_keep_library_gate_kinds() {
        let mut net = Network::new("kinds");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let s = net.add_input("s").unwrap();
        let x = net.add_gate("x", GateKind::Xor, &[a, b]).unwrap();
        let t = net
            .add_table("t", GateKind::Nand.truth_table(2), &[a, x])
            .unwrap();
        let m = net.add_gate("m", GateKind::Mux, &[s, x, t]).unwrap();
        net.mark_output(m);
        let kinds = |n: &Network| -> Vec<Option<GateKind>> {
            n.node_ids()
                .filter_map(|id| match n.node(id).func {
                    NodeFunc::Gate { kind, .. } => Some(kind),
                    NodeFunc::Input => None,
                })
                .collect()
        };
        let req = [Time::new(3)];
        let slice = &slice_cones(&net, &UnitDelay, &req)[0];
        // Canonical order: s, a, b, x, t, m. The table gate stays one.
        assert_eq!(
            kinds(&slice.net),
            [Some(GateKind::Xor), None, Some(GateKind::Mux)]
        );
        // Kinds never enter the descriptor: the same cone built from
        // tables alone has the same one.
        let mut tables = Network::new("tables");
        for id in net.node_ids() {
            let n = net.node(id);
            match &n.func {
                NodeFunc::Input => tables.add_input(n.name.clone()),
                NodeFunc::Gate { table, .. } => {
                    tables.add_table(n.name.clone(), table.clone(), &n.fanins)
                }
            }
            .unwrap();
        }
        tables.mark_output(m);
        let plain = &slice_cones(&tables, &UnitDelay, &req)[0];
        assert_eq!(kinds(&plain.net), [None, None, None]);
        assert_eq!(plain.descriptor, slice.descriptor);
    }

    /// Serve's cone cache keys verdicts by these, on disk too.
    #[test]
    fn cone_fingerprints_are_pinned() {
        assert_eq!(
            fingerprints(&c17()),
            vec![
                0xc4c5_fa7e_0e06_03c7_1e29_7411_fb52_a16c,
                0xe803_b8c2_fc09_6193_1e29_73e0_c814_e7b6,
            ]
        );
    }
}
