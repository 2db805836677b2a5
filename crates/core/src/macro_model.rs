//! False-path-aware timing macro-models (the paper's follow-up work:
//! Kukimoto & Brayton, *Hierarchical timing analysis under the XBD0
//! model*, IWLS 1997 — reference [7] of the paper).
//!
//! A **macro-model** abstracts a combinational block as a matrix of
//! *true* pin-to-pin delays: entry `(i, o)` is the latest time output
//! `o` can remain unsettled after input `i` arrives, maximized over the
//! other inputs' values but accounting for false paths — so a block with
//! an unsensitizable long path advertises the shorter, achievable delay.
//! The abstraction is safe for any surrounding environment under XBD0
//! (delays compose superadditively), yet hides the block's internals.

use xrta_chi::{EngineKind, FunctionalTiming};
use xrta_network::Network;
use xrta_timing::{arrival_times, DelayModel, Time};

/// A false-path-aware pin-to-pin delay abstraction of a network.
#[derive(Clone, Debug)]
pub struct MacroModel {
    /// Input pin names, aligned with the rows of `delay`.
    pub input_names: Vec<String>,
    /// Output pin names, aligned with the columns of `delay`.
    pub output_names: Vec<String>,
    /// `delay[i][o]`: true sensitizable delay from input `i` to output
    /// `o`; `None` when `o` does not depend on `i` at all.
    pub delay: Vec<Vec<Option<Time>>>,
    /// The corresponding *topological* pin-to-pin delays (upper bounds),
    /// for comparison.
    pub topological: Vec<Vec<Option<Time>>>,
}

impl MacroModel {
    /// Arrival times at the outputs for given input arrival times, per
    /// the abstraction: `arr(o) = max_i arr(i) + delay(i, o)`.
    ///
    /// # Panics
    ///
    /// Panics if `input_arrivals.len()` mismatches the pin count.
    pub fn output_arrivals(&self, input_arrivals: &[Time]) -> Vec<Time> {
        assert_eq!(input_arrivals.len(), self.input_names.len());
        (0..self.output_names.len())
            .map(|o| {
                self.delay
                    .iter()
                    .zip(input_arrivals)
                    .filter_map(|(row, &a)| row[o].map(|d| a + d.ticks()))
                    .max()
                    .unwrap_or(Time::NEG_INF)
            })
            .collect()
    }

    /// Number of `(i, o)` pairs whose true delay beats the topological
    /// bound — a quick false-path-content metric.
    pub fn tightened_pairs(&self) -> usize {
        let mut n = 0;
        for (row_t, row_d) in self.topological.iter().zip(&self.delay) {
            for (t, d) in row_t.iter().zip(row_d) {
                if let (Some(t), Some(d)) = (t, d) {
                    if d < t {
                        n += 1;
                    }
                }
            }
        }
        n
    }
}

/// Computes the macro-model of a network.
///
/// The true pin-to-pin delay from input `i` is obtained by the paper's
/// χ machinery: set `arr(i) = 0` and every other arrival to `−∞`
/// ("already stable"), then take the true arrival time at each output —
/// exactly the sensitizable-delay semantics of \[7\].
///
/// # Panics
///
/// Panics if the network has no inputs or outputs.
pub fn macro_model<D: DelayModel>(net: &Network, model: &D, engine: EngineKind) -> MacroModel {
    assert!(!net.inputs().is_empty() && !net.outputs().is_empty());
    let n_in = net.inputs().len();
    let n_out = net.outputs().len();
    let input_names: Vec<String> = net
        .inputs()
        .iter()
        .map(|&i| net.node(i).name.clone())
        .collect();
    let output_names: Vec<String> = net
        .outputs()
        .iter()
        .map(|&o| net.node(o).name.clone())
        .collect();

    // Dependency mask from the structural cones.
    let mut depends = vec![vec![false; n_out]; n_in];
    for (oi, &o) in net.outputs().iter().enumerate() {
        let cone = net.transitive_fanin(&[o]);
        for (ii, &i) in net.inputs().iter().enumerate() {
            if cone.contains(&i) {
                depends[ii][oi] = true;
            }
        }
    }

    let mut delay = vec![vec![None; n_out]; n_in];
    let mut topological = vec![vec![None; n_out]; n_in];
    for ii in 0..n_in {
        let mut arr = vec![Time::NEG_INF; n_in];
        arr[ii] = Time::ZERO;
        let topo = arrival_times(net, model, &arr);
        let ft = FunctionalTiming::new(net, model, arr.clone(), engine);
        for (oi, &o) in net.outputs().iter().enumerate() {
            if !depends[ii][oi] {
                continue;
            }
            topological[ii][oi] = Some(topo[o.index()]);
            delay[ii][oi] = Some(ft.true_arrival(o));
        }
    }

    MacroModel {
        input_names,
        output_names,
        delay,
        topological,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_network::GateKind;
    use xrta_timing::UnitDelay;

    #[test]
    fn chain_delays_match_topology() {
        let mut net = Network::new("chain");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_gate("g", GateKind::And, &[a, b]).unwrap();
        let h = net.add_gate("h", GateKind::Buf, &[g]).unwrap();
        net.mark_output(h);
        let m = macro_model(&net, &UnitDelay, EngineKind::Bdd);
        assert_eq!(m.delay[0][0], Some(Time::new(2)));
        assert_eq!(m.delay[1][0], Some(Time::new(2)));
        assert_eq!(m.tightened_pairs(), 0);
    }

    #[test]
    fn independent_pins_have_no_entry() {
        let mut net = Network::new("split");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let x = net.add_gate("x", GateKind::Not, &[a]).unwrap();
        let y = net.add_gate("y", GateKind::Not, &[b]).unwrap();
        net.mark_output(x);
        net.mark_output(y);
        let m = macro_model(&net, &UnitDelay, EngineKind::Bdd);
        assert_eq!(m.delay[0][1], None, "a does not reach y");
        assert_eq!(m.delay[1][0], None, "b does not reach x");
        assert_eq!(m.delay[0][0], Some(Time::new(1)));
    }

    #[test]
    fn false_path_tightens_macro_delay() {
        // The two-MUX bypass: x's topological path to z is length 4, but
        // the true x→z delay is shorter.
        let net = xrta_circuits::two_mux_bypass();
        let m = macro_model(&net, &UnitDelay, EngineKind::Bdd);
        let xi = m.input_names.iter().position(|n| n == "x").unwrap();
        let (t, d) = (m.topological[xi][0].unwrap(), m.delay[xi][0].unwrap());
        assert!(d < t, "true {d} vs topological {t}");
        assert!(m.tightened_pairs() >= 1);
    }

    #[test]
    fn output_arrivals_compose() {
        let net = xrta_circuits::two_mux_bypass();
        let m = macro_model(&net, &UnitDelay, EngineKind::Bdd);
        let arr = m.output_arrivals(&[Time::ZERO, Time::new(3), Time::ZERO]);
        assert_eq!(arr.len(), 1);
        // The abstraction must upper-bound the monolithic true arrival.
        let ft = FunctionalTiming::new(
            &net,
            &UnitDelay,
            vec![Time::ZERO, Time::new(3), Time::ZERO],
            EngineKind::Bdd,
        );
        let exact = ft.true_arrival(net.outputs()[0]);
        assert!(arr[0] >= exact, "macro {} < exact {}", arr[0], exact);
    }

    #[test]
    fn engines_agree_on_macro_model() {
        let net = xrta_circuits::two_mux_bypass();
        let a = macro_model(&net, &UnitDelay, EngineKind::Bdd);
        let b = macro_model(&net, &UnitDelay, EngineKind::Sat);
        assert_eq!(a.delay, b.delay);
    }
}
