//! Circuit construction and cycle-accurate simulation.
//!
//! A [`Circuit`] is built with [`CircuitBuilder`]: add component instances,
//! wire ports together, declare observable outputs, then
//! [`CircuitBuilder::build`] validates the netlist (everything connected,
//! widths agree, no combinational loops) and computes a static evaluation
//! schedule. [`Circuit::step`] then simulates one clock cycle and returns
//! the switching activity the power model consumes.

use crate::activity::{ActivityRecord, ComponentActivity};
use crate::bits::BitVec;
use crate::component::Component;
use crate::error::NetlistError;

/// Opaque handle to a component instance inside a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(usize);

/// Where an input port takes its value from: an output port of another
/// component.
#[derive(Debug, Clone, Copy)]
struct Source {
    component: ComponentId,
    port: usize,
}

/// Static description of a component instance (name, type, sequential flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentInfo {
    /// Instance name given at [`CircuitBuilder::add`] time.
    pub name: String,
    /// Component type label.
    pub type_name: &'static str,
    /// Whether the component holds registered state.
    pub sequential: bool,
}

struct Instance {
    name: String,
    component: Box<dyn Component>,
    inputs: Vec<Option<Source>>,
    input_widths: Vec<u16>,
    output_widths: Vec<u16>,
}

/// Incremental builder for a [`Circuit`].
///
/// # Examples
///
/// Build the smallest interesting circuit — a counter feeding a register —
/// and run it:
///
/// ```
/// use ipmark_netlist::{CircuitBuilder, seq::{BinaryCounter, Register}, BitVec};
///
/// # fn main() -> Result<(), ipmark_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new();
/// let cnt = b.add("cnt", BinaryCounter::new(8, 0)?);
/// let reg = b.add("reg", Register::new(BitVec::zero(8)));
/// b.connect_ports(cnt, 0, reg, 0)?;
/// b.expose(cnt, 0, "count")?;
/// let mut circuit = b.build()?;
/// let step = circuit.step()?;
/// assert_eq!(step.outputs[0].value(), 0);
/// let step = circuit.step()?;
/// assert_eq!(step.outputs[0].value(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct CircuitBuilder {
    instances: Vec<Instance>,
    outputs: Vec<(String, ComponentId, usize)>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component instance under `name` and returns its handle.
    pub fn add<C: Component + 'static>(&mut self, name: &str, component: C) -> ComponentId {
        let input_widths = component.input_widths();
        let output_widths = component.output_widths();
        let inputs = vec![None; input_widths.len()];
        self.instances.push(Instance {
            name: name.to_owned(),
            component: Box::new(component),
            inputs,
            input_widths,
            output_widths,
        });
        ComponentId(self.instances.len() - 1)
    }

    /// Connects output `src_port` of `src` to input `dst_port` of `dst`.
    ///
    /// # Errors
    ///
    /// Returns an error when either id or port is unknown or the widths
    /// disagree.
    pub fn connect_ports(
        &mut self,
        src: ComponentId,
        src_port: usize,
        dst: ComponentId,
        dst_port: usize,
    ) -> Result<(), NetlistError> {
        let src_width = self.output_width(src, src_port)?;
        let (dst_width, dst_name) = self.input_width(dst, dst_port)?;
        if src_width != dst_width {
            return Err(NetlistError::ConnectionWidthMismatch {
                source: format!("`{}`.{}", self.instances[src.0].name, src_port),
                dest: dst_name,
                port: dst_port,
                source_width: src_width,
                dest_width: dst_width,
            });
        }
        self.instances[dst.0].inputs[dst_port] = Some(Source {
            component: src,
            port: src_port,
        });
        Ok(())
    }

    /// Declares output `port` of component `id` as an observable circuit
    /// output under `name`.
    ///
    /// # Errors
    ///
    /// Returns an error when the id or port is unknown.
    pub fn expose(&mut self, id: ComponentId, port: usize, name: &str) -> Result<(), NetlistError> {
        self.output_width(id, port)?;
        self.outputs.push((name.to_owned(), id, port));
        Ok(())
    }

    /// Validates the netlist and produces a runnable [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnconnectedInput`] for dangling input ports
    /// and [`NetlistError::CombinationalLoop`] when the combinational
    /// subgraph is cyclic.
    pub fn build(self) -> Result<Circuit, NetlistError> {
        for inst in &self.instances {
            for (port, src) in inst.inputs.iter().enumerate() {
                if src.is_none() {
                    return Err(NetlistError::UnconnectedInput {
                        component: inst.name.clone(),
                        port,
                    });
                }
            }
        }
        let order = self.topo_order()?;
        let n = self.instances.len();
        Ok(Circuit {
            instances: self.instances,
            outputs: self.outputs,
            eval_order: order,
            prev_outputs: vec![None; n],
            cycle: 0,
        })
    }

    /// Kahn's algorithm over evaluation dependencies. A *combinational*
    /// consumer must evaluate after all of its producers; a *sequential*
    /// consumer only reads its inputs at the clock edge (after every
    /// evaluation), so edges into sequential components are dropped — that
    /// is how registers legally break feedback loops. Any remaining cycle is
    /// a genuine combinational loop.
    fn topo_order(&self) -> Result<Vec<usize>, NetlistError> {
        let n = self.instances.len();
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (dst, inst) in self.instances.iter().enumerate() {
            if inst.component.is_sequential() {
                continue;
            }
            for src in inst.inputs.iter().flatten() {
                successors[src.component.0].push(dst);
                indegree[dst] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &successors[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() != n {
            let involved = (0..n)
                .filter(|&i| indegree[i] > 0)
                .map(|i| self.instances[i].name.clone())
                .collect();
            return Err(NetlistError::CombinationalLoop { involved });
        }
        Ok(order)
    }

    fn output_width(&self, id: ComponentId, port: usize) -> Result<u16, NetlistError> {
        let inst = self
            .instances
            .get(id.0)
            .ok_or(NetlistError::UnknownComponent { id: id.0 })?;
        inst.output_widths
            .get(port)
            .copied()
            .ok_or_else(|| NetlistError::UnknownPort {
                component: inst.name.clone(),
                port,
                available: inst.output_widths.len(),
            })
    }

    fn input_width(&self, id: ComponentId, port: usize) -> Result<(u16, String), NetlistError> {
        let inst = self
            .instances
            .get(id.0)
            .ok_or(NetlistError::UnknownComponent { id: id.0 })?;
        let width =
            inst.input_widths
                .get(port)
                .copied()
                .ok_or_else(|| NetlistError::UnknownPort {
                    component: inst.name.clone(),
                    port,
                    available: inst.input_widths.len(),
                })?;
        Ok((width, inst.name.clone()))
    }
}

/// Result of simulating one clock cycle.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Switching activity of every component this cycle.
    pub activity: ActivityRecord,
    /// Values of the circuit outputs declared with
    /// [`CircuitBuilder::expose`], in declaration order, *before* the clock
    /// edge (i.e. what an observer sees during the cycle).
    pub outputs: Vec<BitVec>,
}

/// A validated, runnable netlist.
///
/// Obtain one from [`CircuitBuilder::build`]. Call [`Circuit::step`] once
/// per clock cycle; call [`Circuit::reset`] to return every component to its
/// power-on state (the paper resets all FSMs to the same state before each
/// power measurement).
pub struct Circuit {
    instances: Vec<Instance>,
    outputs: Vec<(String, ComponentId, usize)>,
    eval_order: Vec<usize>,
    prev_outputs: Vec<Option<Vec<BitVec>>>,
    cycle: u64,
}

impl Circuit {
    /// Number of component instances.
    pub fn component_count(&self) -> usize {
        self.instances.len()
    }

    /// Static description of component `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownComponent`] for an out-of-range id.
    pub fn component_info(&self, id: ComponentId) -> Result<ComponentInfo, NetlistError> {
        let inst = self
            .instances
            .get(id.0)
            .ok_or(NetlistError::UnknownComponent { id: id.0 })?;
        Ok(ComponentInfo {
            name: inst.name.clone(),
            type_name: inst.component.type_name(),
            sequential: inst.component.is_sequential(),
        })
    }

    /// Static descriptions of all components, indexed by component id.
    pub fn component_infos(&self) -> Vec<ComponentInfo> {
        // Every id in 0..len is valid, so the filter drops nothing; it
        // only keeps this accessor total without a panic path.
        (0..self.instances.len())
            .filter_map(|i| self.component_info(ComponentId(i)).ok())
            .collect()
    }

    /// Names of the declared circuit outputs, in declaration order.
    pub fn output_names(&self) -> Vec<&str> {
        self.outputs.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Returns every component to its power-on state and clears activity
    /// history.
    pub fn reset(&mut self) {
        for inst in &mut self.instances {
            inst.component.reset();
        }
        for p in &mut self.prev_outputs {
            *p = None;
        }
        self.cycle = 0;
    }

    /// Simulates one clock cycle.
    ///
    /// Combinational logic is evaluated in dependency order, circuit outputs
    /// and switching activity are recorded, then every sequential component
    /// takes its clock edge.
    ///
    /// # Errors
    ///
    /// Propagates component evaluation errors.
    pub fn step(&mut self) -> Result<StepResult, NetlistError> {
        let n = self.instances.len();
        let mut values: Vec<Option<Vec<BitVec>>> = vec![None; n];

        // Phase 1: evaluation in schedule order. Sequential components are
        // Moore machines — their eval must not read inputs — so they receive
        // placeholder values (their producers may not have evaluated yet).
        for &idx in &self.eval_order {
            let inputs = if self.instances[idx].component.is_sequential() {
                self.instances[idx]
                    .input_widths
                    .iter()
                    .map(|&w| BitVec::zero(w))
                    .collect()
            } else {
                Self::resolve_inputs(&self.instances[idx].inputs, &values)?
            };
            let mut outs = Vec::with_capacity(self.instances[idx].output_widths.len());
            self.instances[idx].component.eval(&inputs, &mut outs)?;
            debug_assert_eq!(outs.len(), self.instances[idx].output_widths.len());
            values[idx] = Some(outs);
        }

        // Phase 2: observe circuit outputs.
        let outputs = self
            .outputs
            .iter()
            .map(|&(_, id, port)| {
                values[id.0]
                    .as_ref()
                    .and_then(|outs| outs.get(port))
                    .copied()
                    .ok_or(NetlistError::Invariant {
                        what: "every output port was evaluated in phase 1",
                    })
            })
            .collect::<Result<_, _>>()?;

        // Phase 3: clock edge + activity accounting. All clock inputs are
        // resolved against the pre-edge value snapshot, which is exactly the
        // synchronous semantics of a single shared clock.
        let mut components = Vec::with_capacity(n);
        for idx in 0..n {
            let Some(outs) = values[idx].as_ref() else {
                return Err(NetlistError::Invariant {
                    what: "every component was evaluated in phase 1",
                });
            };
            let output_hd = match &self.prev_outputs[idx] {
                Some(prev) => {
                    let mut hd = 0u32;
                    for (a, b) in prev.iter().zip(outs) {
                        hd += a.hamming_distance(b)?;
                    }
                    hd
                }
                None => 0,
            };
            let output_hw = outs.iter().map(BitVec::hamming_weight).sum();

            let (state_hd, state_hw) = if self.instances[idx].component.is_sequential() {
                let inputs = Self::resolve_inputs(&self.instances[idx].inputs, &values)?;
                let inst = &mut self.instances[idx];
                let before = inst.component.state().ok_or(NetlistError::Invariant {
                    what: "sequential components expose their state",
                })?;
                inst.component.clock(&inputs)?;
                let after = inst.component.state().ok_or(NetlistError::Invariant {
                    what: "sequential components expose their state",
                })?;
                (before.hamming_distance(&after)?, after.hamming_weight())
            } else {
                (0, 0)
            };

            components.push(ComponentActivity {
                state_hd,
                state_hw,
                output_hd,
                output_hw,
            });
        }
        for (prev, value) in self.prev_outputs.iter_mut().zip(values.iter_mut()) {
            *prev = value.take();
        }

        let record = ActivityRecord {
            cycle: self.cycle,
            components,
        };
        self.cycle += 1;
        Ok(StepResult {
            activity: record,
            outputs,
        })
    }

    /// Simulates `cycles` clock cycles, collecting the activity records.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_free(&mut self, cycles: usize) -> Result<Vec<ActivityRecord>, NetlistError> {
        let mut records = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            records.push(self.step()?.activity);
        }
        Ok(records)
    }

    /// Resolves the input values of one instance against the per-cycle value
    /// snapshot.
    fn resolve_inputs(
        inputs: &[Option<Source>],
        values: &[Option<Vec<BitVec>>],
    ) -> Result<Vec<BitVec>, NetlistError> {
        inputs
            .iter()
            .map(|src| match src {
                Some(Source { component, port }) => values[component.0]
                    .as_ref()
                    .and_then(|outs| outs.get(*port))
                    .copied()
                    .ok_or(NetlistError::Invariant {
                        what: "producers are evaluated before their consumers",
                    }),
                None => Err(NetlistError::Invariant {
                    what: "every input is connected (validated at build time)",
                }),
            })
            .collect()
    }
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("components", &self.component_infos())
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::{Constant, Xor2};
    use crate::memory::SyncRom;
    use crate::seq::{BinaryCounter, Register};

    fn counter_register_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let cnt = b.add("cnt", BinaryCounter::new(4, 0).unwrap());
        let reg = b.add("reg", Register::new(BitVec::zero(4)));
        b.connect_ports(cnt, 0, reg, 0).unwrap();
        b.expose(cnt, 0, "count").unwrap();
        b.expose(reg, 0, "delayed").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_rejects_unconnected_input() {
        let mut b = CircuitBuilder::new();
        b.add("reg", Register::new(BitVec::zero(4)));
        assert!(matches!(
            b.build(),
            Err(NetlistError::UnconnectedInput { .. })
        ));
    }

    #[test]
    fn connect_rejects_width_mismatch() {
        let mut b = CircuitBuilder::new();
        let cnt = b.add("cnt", BinaryCounter::new(4, 0).unwrap());
        let reg = b.add("reg", Register::new(BitVec::zero(8)));
        assert!(matches!(
            b.connect_ports(cnt, 0, reg, 0),
            Err(NetlistError::ConnectionWidthMismatch { .. })
        ));
    }

    #[test]
    fn connect_rejects_unknown_port() {
        let mut b = CircuitBuilder::new();
        let cnt = b.add("cnt", BinaryCounter::new(4, 0).unwrap());
        let reg = b.add("reg", Register::new(BitVec::zero(4)));
        assert!(matches!(
            b.connect_ports(cnt, 1, reg, 0),
            Err(NetlistError::UnknownPort { .. })
        ));
        assert!(matches!(
            b.connect_ports(cnt, 0, reg, 5),
            Err(NetlistError::UnknownPort { .. })
        ));
    }

    #[test]
    fn combinational_loop_detected() {
        let mut b = CircuitBuilder::new();
        let x1 = b.add("x1", Xor2::new(4));
        let x2 = b.add("x2", Xor2::new(4));
        let c = b.add("c", Constant::new(BitVec::zero(4)));
        b.connect_ports(c, 0, x1, 0).unwrap();
        b.connect_ports(x2, 0, x1, 1).unwrap();
        b.connect_ports(c, 0, x2, 0).unwrap();
        b.connect_ports(x1, 0, x2, 1).unwrap();
        match b.build() {
            Err(NetlistError::CombinationalLoop { involved }) => {
                assert_eq!(involved.len(), 2);
            }
            other => panic!("expected loop error, got {other:?}"),
        }
    }

    #[test]
    fn register_breaks_cycles() {
        // reg -> xor -> reg is fine because the register is sequential.
        let mut b = CircuitBuilder::new();
        let reg = b.add("reg", Register::new(BitVec::zero(4)));
        let c = b.add("c", Constant::new(BitVec::truncated(1, 4)));
        let x = b.add("x", Xor2::new(4));
        b.connect_ports(reg, 0, x, 0).unwrap();
        b.connect_ports(c, 0, x, 1).unwrap();
        b.connect_ports(x, 0, reg, 0).unwrap();
        b.expose(reg, 0, "q").unwrap();
        let mut circuit = b.build().unwrap();
        // q follows q ^ 1 each cycle: 0, 1, 0, 1, ...
        assert_eq!(circuit.step().unwrap().outputs[0].value(), 0);
        assert_eq!(circuit.step().unwrap().outputs[0].value(), 1);
        assert_eq!(circuit.step().unwrap().outputs[0].value(), 0);
    }

    #[test]
    fn counter_feeds_register_with_one_cycle_delay() {
        let mut circuit = counter_register_circuit();
        let mut pairs = Vec::new();
        for _ in 0..6 {
            let s = circuit.step().unwrap();
            pairs.push((s.outputs[0].value(), s.outputs[1].value()));
        }
        assert_eq!(pairs, vec![(0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]);
    }

    #[test]
    fn activity_records_state_toggles() {
        let mut circuit = counter_register_circuit();
        let r0 = circuit.step().unwrap().activity;
        // Counter 0 -> 1: one toggle. Register 0 -> 0: zero toggles.
        assert_eq!(r0.components[0].state_hd, 1);
        assert_eq!(r0.components[1].state_hd, 0);
        let r1 = circuit.step().unwrap().activity;
        // Counter 1 -> 2: two toggles. Register 0 -> 1: one toggle.
        assert_eq!(r1.components[0].state_hd, 2);
        assert_eq!(r1.components[1].state_hd, 1);
        // Output HD on the first cycle is defined as zero.
        assert_eq!(r0.components[0].output_hd, 0);
        assert_eq!(r1.components[0].output_hd, 1);
    }

    #[test]
    fn reset_restores_power_on_behaviour() {
        let mut circuit = counter_register_circuit();
        let first: Vec<_> = (0..5).map(|_| circuit.step().unwrap().activity).collect();
        circuit.reset();
        assert_eq!(circuit.cycle, 0);
        let second: Vec<_> = (0..5).map(|_| circuit.step().unwrap().activity).collect();
        assert_eq!(
            first, second,
            "simulation must be deterministic after reset"
        );
    }

    #[test]
    fn sync_rom_pipeline_behaves() {
        // counter -> sync rom; rom output lags the counter address by one.
        let table: Vec<u64> = (0..16).map(|i| (15 - i) as u64).collect();
        let mut b = CircuitBuilder::new();
        let cnt = b.add("cnt", BinaryCounter::new(4, 0).unwrap());
        let rom = b.add("rom", SyncRom::new(table, 4, 0).unwrap());
        b.connect_ports(cnt, 0, rom, 0).unwrap();
        b.expose(rom, 0, "q").unwrap();
        let mut circuit = b.build().unwrap();
        assert_eq!(circuit.step().unwrap().outputs[0].value(), 0); // init
        assert_eq!(circuit.step().unwrap().outputs[0].value(), 15); // table[0]
        assert_eq!(circuit.step().unwrap().outputs[0].value(), 14); // table[1]
    }

    #[test]
    fn run_free_collects_records() {
        let mut circuit = counter_register_circuit();
        let records = circuit.run_free(10).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[9].cycle, 9);
    }

    #[test]
    fn component_info_reports_shape() {
        let circuit = counter_register_circuit();
        assert_eq!(circuit.component_count(), 2);
        let infos = circuit.component_infos();
        assert_eq!(infos[0].type_name, "binary-counter");
        assert!(infos[0].sequential);
        assert_eq!(infos[1].name, "reg");
        assert!(circuit.component_info(ComponentId(5)).is_err());
        assert_eq!(circuit.output_names(), vec!["count", "delayed"]);
    }
}
