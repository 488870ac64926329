//! The HEUG directed acyclic graph and its builder.
//!
//! A HEUG connects elementary units by *precedence constraints*: `eu_b` may
//! start only once `eu_a` has finished. Constraints may carry parameters
//! (modelled by a payload size) and are *local* when both ends share a
//! processor, *remote* otherwise — a remote constraint is materialised at
//! run time by an invocation of the network-management task `msg_task`
//! (Section 3.1 of the paper).

use crate::attrs::ProcessorId;
use crate::eu::{CodeEu, Eu, EuIndex, InvEu};
use hades_time::Duration;
use std::collections::HashSet;
use std::fmt;

/// A precedence constraint between two units of the same HEUG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Precedence {
    /// The unit that must finish first.
    pub from: EuIndex,
    /// The unit that may then start.
    pub to: EuIndex,
    /// Size of the parameters transferred along the constraint, in bytes
    /// (zero for pure ordering).
    pub payload_bytes: u64,
}

/// Validation failure when building a HEUG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no units.
    Empty,
    /// A precedence endpoint refers to a unit that does not exist.
    DanglingEndpoint(EuIndex),
    /// A self-loop `eu → eu` was declared.
    SelfLoop(EuIndex),
    /// The same constraint was declared twice.
    DuplicateEdge(EuIndex, EuIndex),
    /// The precedence relation contains a cycle through the given unit.
    Cycle(EuIndex),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "HEUG has no elementary units"),
            GraphError::DanglingEndpoint(eu) => {
                write!(f, "precedence constraint references unknown unit {eu}")
            }
            GraphError::SelfLoop(eu) => write!(f, "self-loop on unit {eu}"),
            GraphError::DuplicateEdge(a, b) => {
                write!(f, "duplicate precedence constraint {a} -> {b}")
            }
            GraphError::Cycle(eu) => write!(f, "precedence cycle through unit {eu}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for a [`Heug`].
///
/// See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct HeugBuilder {
    name: String,
    eus: Vec<Eu>,
    edges: Vec<Precedence>,
}

impl HeugBuilder {
    /// Starts building a HEUG with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        HeugBuilder {
            name: name.into(),
            eus: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a code unit; returns its index.
    pub fn code_eu(&mut self, eu: CodeEu) -> EuIndex {
        self.eus.push(Eu::Code(eu));
        EuIndex(self.eus.len() as u32 - 1)
    }

    /// Adds an invocation unit; returns its index.
    pub fn inv_eu(&mut self, eu: InvEu) -> EuIndex {
        self.eus.push(Eu::Inv(eu));
        EuIndex(self.eus.len() as u32 - 1)
    }

    /// Declares a pure-ordering precedence constraint `from → to`.
    pub fn precede(&mut self, from: EuIndex, to: EuIndex) -> &mut Self {
        self.precede_with(from, to, 0)
    }

    /// Declares a precedence constraint carrying `payload_bytes` of
    /// parameters.
    pub fn precede_with(&mut self, from: EuIndex, to: EuIndex, payload_bytes: u64) -> &mut Self {
        self.edges.push(Precedence {
            from,
            to,
            payload_bytes,
        });
        self
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the graph is empty, an edge references a
    /// missing unit, a self-loop or duplicate edge exists, or the relation
    /// is cyclic.
    pub fn build(self) -> Result<Heug, GraphError> {
        let n = self.eus.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut seen = HashSet::new();
        for e in &self.edges {
            if e.from.0 as usize >= n {
                return Err(GraphError::DanglingEndpoint(e.from));
            }
            if e.to.0 as usize >= n {
                return Err(GraphError::DanglingEndpoint(e.to));
            }
            if e.from == e.to {
                return Err(GraphError::SelfLoop(e.from));
            }
            if !seen.insert((e.from, e.to)) {
                return Err(GraphError::DuplicateEdge(e.from, e.to));
            }
        }
        // Kahn's algorithm: compute a topological order, detect cycles.
        let mut indeg = vec![0usize; n];
        let mut succs = vec![Vec::new(); n];
        for e in &self.edges {
            indeg[e.to.0 as usize] += 1;
            succs[e.from.0 as usize].push(e.to);
        }
        let mut ready: Vec<usize> = (0..n).filter(|i| indeg[*i] == 0).collect();
        ready.reverse(); // pop from the back yields ascending indices
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(EuIndex(i as u32));
            for s in &succs[i] {
                indeg[s.0 as usize] -= 1;
                if indeg[s.0 as usize] == 0 {
                    ready.push(s.0 as usize);
                }
            }
            ready.sort_unstable_by(|a, b| b.cmp(a));
        }
        if order.len() != n {
            let stuck = indeg
                .iter()
                .position(|d| *d > 0)
                .expect("cycle implies positive in-degree");
            return Err(GraphError::Cycle(EuIndex(stuck as u32)));
        }
        // A task set keeps its graphs for the whole run: no spare room
        // (a no-op for `Heug::single`, whose unit is allocated exactly).
        let mut eus = self.eus;
        eus.shrink_to_fit();
        Ok(Heug {
            name: self.name,
            eus,
            edges: self.edges,
            topo: order,
        })
    }
}

/// A validated HEUG: the elementary-unit DAG of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heug {
    name: String,
    eus: Vec<Eu>,
    edges: Vec<Precedence>,
    topo: Vec<EuIndex>,
}

impl Heug {
    /// A single-action HEUG — the common case for simple periodic tasks.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed `CodeEu`; the `Result` mirrors
    /// [`HeugBuilder::build`].
    pub fn single(eu: CodeEu) -> Result<Heug, GraphError> {
        let b = HeugBuilder {
            name: eu.name.clone(),
            eus: vec![Eu::Code(eu)],
            edges: Vec::new(),
        };
        b.build()
    }

    /// The task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All units, indexable by [`EuIndex`].
    pub fn eus(&self) -> &[Eu] {
        &self.eus
    }

    /// The unit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (indices come from the builder, so
    /// this indicates a cross-HEUG mix-up).
    pub fn eu(&self, idx: EuIndex) -> &Eu {
        &self.eus[idx.0 as usize]
    }

    /// All precedence constraints.
    pub fn edges(&self) -> &[Precedence] {
        &self.edges
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.eus.len()
    }

    /// Whether the HEUG has no units (never true for a built graph).
    pub fn is_empty(&self) -> bool {
        self.eus.is_empty()
    }

    /// A topological order of the units (deterministic: ties resolve to the
    /// lowest index first).
    pub fn topological_order(&self) -> &[EuIndex] {
        &self.topo
    }

    /// Direct predecessors of `idx`, in edge order.
    pub fn predecessors(&self, idx: EuIndex) -> impl Iterator<Item = EuIndex> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.to == idx)
            .map(|e| e.from)
    }

    /// Direct successors of `idx`, in edge order.
    pub fn successors(&self, idx: EuIndex) -> impl Iterator<Item = EuIndex> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.from == idx)
            .map(|e| e.to)
    }

    /// Units with no predecessors (started at task activation).
    pub fn sources(&self) -> Vec<EuIndex> {
        (0..self.eus.len() as u32)
            .map(EuIndex)
            .filter(|i| self.predecessors(*i).next().is_none())
            .collect()
    }

    /// Units with no successors (task completes when all have finished).
    pub fn sinks(&self) -> Vec<EuIndex> {
        (0..self.eus.len() as u32)
            .map(EuIndex)
            .filter(|i| self.successors(*i).next().is_none())
            .collect()
    }

    /// Whether a constraint is *local* (both ends on one processor).
    pub fn is_local(&self, edge: &Precedence) -> bool {
        self.eu(edge.from).processor() == self.eu(edge.to).processor()
    }

    /// The remote constraints — each materialised by a `msg_task`
    /// invocation at run time.
    pub fn remote_edges(&self) -> Vec<Precedence> {
        self.edges
            .iter()
            .filter(|e| !self.is_local(e))
            .copied()
            .collect()
    }

    /// The set of processors this HEUG touches.
    pub fn processors(&self) -> Vec<ProcessorId> {
        let mut ps: Vec<ProcessorId> = self.eus.iter().map(|e| e.processor()).collect();
        ps.sort();
        ps.dedup();
        ps
    }

    /// Sum of code-unit WCETs on `processor` — the per-processor demand
    /// this task contributes to a feasibility test.
    pub fn wcet_on(&self, processor: ProcessorId) -> Duration {
        self.eus
            .iter()
            .filter_map(Eu::as_code)
            .filter(|c| c.processor == processor)
            .map(|c| c.wcet)
            .sum()
    }

    /// Sum of all code-unit WCETs.
    pub fn total_wcet(&self) -> Duration {
        self.eus
            .iter()
            .filter_map(Eu::as_code)
            .map(|c| c.wcet)
            .sum()
    }

    /// Sets the base priority of every code unit (raising thresholds to at
    /// least the new priority). Used by static policies (RM, DM) to install
    /// their offline priority assignment.
    pub fn assign_priority(&mut self, prio: crate::attrs::Priority) {
        for eu in &mut self.eus {
            if let Eu::Code(c) = eu {
                c.timing.prio = prio;
                c.timing.pt = c.timing.pt.max(prio);
            }
        }
    }

    /// Length (total WCET) of the longest precedence chain — a lower bound
    /// on the task's response time even on infinitely many processors.
    pub fn critical_path(&self) -> Duration {
        let mut dist = vec![Duration::ZERO; self.eus.len()];
        for idx in &self.topo {
            let own = self
                .eu(*idx)
                .as_code()
                .map(|c| c.wcet)
                .unwrap_or(Duration::ZERO);
            let pred_max = self
                .predecessors(*idx)
                .map(|p| dist[p.0 as usize])
                .fold(Duration::ZERO, Duration::max);
            dist[idx.0 as usize] = pred_max + own;
        }
        dist.into_iter().fold(Duration::ZERO, Duration::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::ProcessorId;

    fn code(name: &str, us: u64, p: u32) -> CodeEu {
        CodeEu::new(name, Duration::from_micros(us), ProcessorId(p))
    }

    fn diamond() -> Heug {
        // a → b, a → c, b → d, c → d
        let mut b = HeugBuilder::new("diamond");
        let a = b.code_eu(code("a", 10, 0));
        let x = b.code_eu(code("b", 20, 0));
        let y = b.code_eu(code("c", 30, 1));
        let d = b.code_eu(code("d", 40, 0));
        b.precede(a, x).precede(a, y).precede(x, d).precede(y, d);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_orders_diamond() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        let topo = g.topological_order();
        assert_eq!(topo[0], EuIndex(0));
        assert_eq!(topo[3], EuIndex(3));
        assert_eq!(g.sources(), vec![EuIndex(0)]);
        assert_eq!(g.sinks(), vec![EuIndex(3)]);
    }

    #[test]
    fn predecessors_and_successors() {
        let g = diamond();
        let preds: Vec<EuIndex> = g.predecessors(EuIndex(3)).collect();
        let succs: Vec<EuIndex> = g.successors(EuIndex(0)).collect();
        assert_eq!(preds, vec![EuIndex(1), EuIndex(2)]);
        assert_eq!(succs, vec![EuIndex(1), EuIndex(2)]);
        assert_eq!(g.predecessors(EuIndex(0)).count(), 0);
    }

    #[test]
    fn local_and_remote_edges() {
        let g = diamond();
        let remote = g.remote_edges();
        // a(p0)→c(p1) and c(p1)→d(p0) are remote.
        assert_eq!(remote.len(), 2);
        assert!(remote
            .iter()
            .any(|e| e.from == EuIndex(0) && e.to == EuIndex(2)));
        assert!(remote
            .iter()
            .any(|e| e.from == EuIndex(2) && e.to == EuIndex(3)));
        assert_eq!(g.processors(), vec![ProcessorId(0), ProcessorId(1)]);
    }

    #[test]
    fn wcet_accounting() {
        let g = diamond();
        assert_eq!(g.wcet_on(ProcessorId(0)), Duration::from_micros(70));
        assert_eq!(g.wcet_on(ProcessorId(1)), Duration::from_micros(30));
        assert_eq!(g.total_wcet(), Duration::from_micros(100));
        // Critical path a→c→d = 10+30+40 = 80.
        assert_eq!(g.critical_path(), Duration::from_micros(80));
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            HeugBuilder::new("e").build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut b = HeugBuilder::new("d");
        let a = b.code_eu(code("a", 1, 0));
        b.precede(a, EuIndex(9));
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DanglingEndpoint(EuIndex(9))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = HeugBuilder::new("s");
        let a = b.code_eu(code("a", 1, 0));
        b.precede(a, a);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop(a));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = HeugBuilder::new("dup");
        let a = b.code_eu(code("a", 1, 0));
        let c = b.code_eu(code("b", 1, 0));
        b.precede(a, c).precede(a, c);
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(a, c));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = HeugBuilder::new("cyc");
        let a = b.code_eu(code("a", 1, 0));
        let c = b.code_eu(code("b", 1, 0));
        let d = b.code_eu(code("c", 1, 0));
        b.precede(a, c).precede(c, d).precede(d, a);
        assert!(matches!(b.build().unwrap_err(), GraphError::Cycle(_)));
    }

    #[test]
    fn built_units_take_no_spare_room() {
        assert_eq!(Heug::single(code("only", 5, 0)).unwrap().eus.capacity(), 1);
        let g = diamond();
        assert_eq!(g.eus.capacity(), g.eus.len());
    }

    #[test]
    fn single_action_heug() {
        let g = Heug::single(code("only", 5, 0)).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.name(), "only");
        assert_eq!(g.sources(), g.sinks());
        assert_eq!(g.critical_path(), Duration::from_micros(5));
        assert!(!g.is_empty());
    }

    #[test]
    fn error_display_messages() {
        assert!(GraphError::Empty
            .to_string()
            .contains("no elementary units"));
        assert!(GraphError::SelfLoop(EuIndex(1)).to_string().contains("eu1"));
        assert!(GraphError::Cycle(EuIndex(2)).to_string().contains("cycle"));
        assert!(GraphError::DuplicateEdge(EuIndex(0), EuIndex(1))
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn payload_bytes_preserved() {
        let mut b = HeugBuilder::new("p");
        let a = b.code_eu(code("a", 1, 0));
        let c = b.code_eu(code("b", 1, 1));
        b.precede_with(a, c, 128);
        let g = b.build().unwrap();
        assert_eq!(g.edges()[0].payload_bytes, 128);
        assert!(!g.is_local(&g.edges()[0]));
    }
}
