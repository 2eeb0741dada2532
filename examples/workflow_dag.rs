//! Workflow DAG demo: pipeline serving with dependency-aware release.
//!
//! One [`WorkflowSpec`] carries two coupled pipelines through the serve
//! engine at once:
//!
//! * an **MD trajectory** — three chained `MdSegment` frames, each
//!   fanning out into a full-Casida excitation `Spectrum` for its
//!   snapshot, and
//! * a **k-point sweep** — a `GroundState` SCF seeding four
//!   `ScfSelfConsistent` refinements (each finds the seed's ground
//!   state in the result cache), all reducing into one `BandStructure`.
//!
//! The coordinator holds every dependent node *outside* the queue
//! shards and releases it the instant its last parent fulfills — no
//! polling thread, so independent branches overlap freely. Afterwards
//! the example reconstructs the workflow's **critical path** from the
//! trace: each node's `dag-wait` span names its workflow + node index,
//! which stitches the per-job trace lanes back into the graph.
//!
//! Run with: `cargo run --release --example workflow_dag`

use ndft::serve::{
    DftJob, DftService, NodeId, ServeConfig, TraceEvent, TraceEventKind, WorkflowSpec,
};
use std::collections::HashMap;

fn main() {
    let svc = DftService::start(ServeConfig {
        workers: 4,
        shards: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let collector = svc.trace();

    // ---- build the spec ------------------------------------------------
    let mut spec = WorkflowSpec::new();
    let mut labels: Vec<String> = Vec::new();
    let label = |labels: &mut Vec<String>, id: NodeId, text: String| {
        debug_assert_eq!(id.index(), labels.len());
        labels.push(text);
        id
    };

    // MD trajectory: frame n depends on frame n-1, and every frame fans
    // out into its own excitation spectrum.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut prev: Option<NodeId> = None;
    for frame in 0..3u64 {
        let md = label(
            &mut labels,
            spec.add_node(DftJob::MdSegment {
                atoms: 8 + 8 * frame as usize,
                steps: 24,
                temperature_k: 300.0,
                seed: 40 + frame,
            }),
            format!("md-frame-{frame}"),
        );
        if let Some(p) = prev {
            edges.push((p, md));
        }
        let casida = label(
            &mut labels,
            spec.add_node(DftJob::Spectrum {
                atoms: 8 + 8 * frame as usize,
                full_casida: true,
            }),
            format!("casida-frame-{frame}"),
        );
        edges.push((md, casida));
        prev = Some(md);
    }

    // K-point sweep: one SCF seeds four self-consistent refinements
    // (same atoms/bands/iterations, so the parent's cached outcome is
    // their bootstrap), and the sweep reduces into one band structure.
    let scf = label(
        &mut labels,
        spec.add_node(DftJob::GroundState {
            atoms: 8,
            bands: 4,
            max_iterations: 12,
        }),
        "scf-seed".to_string(),
    );
    let band = label(
        &mut labels,
        spec.add_node(DftJob::BandStructure {
            atoms: 8,
            segments: 4,
            n_bands: 4,
            scissor_ev: 0.9,
        }),
        "band-structure".to_string(),
    );
    for k in 0..4u64 {
        let sweep = label(
            &mut labels,
            spec.add_node(DftJob::ScfSelfConsistent {
                atoms: 8,
                bands: 4,
                max_iterations: 12,
                occupied: 2,
                cycles: 2 + k as usize,
                alpha: 0.4,
            }),
            format!("kpoint-sweep-{k}"),
        );
        edges.push((scf, sweep));
        edges.push((sweep, band));
    }
    let mut parents: HashMap<usize, Vec<usize>> = HashMap::new();
    for (from, to) in edges {
        spec.add_edge(from, to);
        parents.entry(to.index()).or_default().push(from.index());
    }

    println!(
        "workflow: {} nodes (MD trajectory ⇒ per-frame Casida, SCF ⇒ k-sweep ⇒ band structure)\n",
        spec.len()
    );

    // ---- run it --------------------------------------------------------
    let workflow = svc.submit_workflow(spec).expect("valid spec");
    let results = workflow.wait_all();
    for (node, result) in results.iter().enumerate() {
        let outcome = result.as_ref().expect("node completes");
        println!(
            "  {:>16}  headline {:>9.4}  via {:?}",
            labels[node],
            outcome.payload.headline(),
            outcome.placement.policy
        );
    }

    let report = svc.shutdown();
    let events = collector.drain();

    // ---- critical path from the trace ----------------------------------
    // Each released node emitted a `dag-wait` span on its job's trace
    // lane carrying (workflow, node): that is the join key between the
    // graph and the flat event stream.
    let mut node_trace: HashMap<usize, &TraceEvent> = HashMap::new();
    for event in &events {
        if let TraceEventKind::DagWait { node, .. } = event.kind {
            node_trace.insert(node, event);
        }
    }
    let mut chains: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    for event in &events {
        chains.entry(event.trace.0).or_default().push(event);
    }
    let finish = |node: usize| -> u64 {
        let Some(wait) = node_trace.get(&node) else {
            return 0;
        };
        chains
            .get(&wait.trace.0)
            .map(|chain| chain.iter().map(|e| e.end_ns()).max().unwrap_or(0))
            .unwrap_or(0)
    };

    // Walk back from the last-finishing *sink* (a node nothing depends
    // on) through each node's last-finishing parent: that chain is the
    // pipeline's critical path.
    let has_child: std::collections::HashSet<usize> = parents.values().flatten().copied().collect();
    let sink = (0..labels.len())
        .filter(|n| !has_child.contains(n))
        .max_by_key(|&n| finish(n))
        .expect("a DAG has at least one sink");
    let mut path = vec![sink];
    while let Some(parent) = parents
        .get(path.last().unwrap())
        .and_then(|ps| ps.iter().copied().max_by_key(|&p| finish(p)))
    {
        path.push(parent);
    }
    path.reverse();

    let t0 = path
        .first()
        .and_then(|n| node_trace.get(n))
        .map_or(0, |e| e.start_ns);
    println!(
        "\ncritical path ({} of {} nodes):",
        path.len(),
        labels.len()
    );
    for &node in &path {
        let Some(wait) = node_trace.get(&node) else {
            continue;
        };
        let chain = &chains[&wait.trace.0];
        let exec_ns: u64 = chain
            .iter()
            .filter(|e| !e.kind.is_instant() && !matches!(e.kind, TraceEventKind::DagWait { .. }))
            .map(|e| e.dur_ns)
            .sum();
        println!(
            "  {:<16} released +{:>8.3} ms   dag-wait {:>8.3} ms   spans {:>8.3} ms",
            labels[node],
            wait.end_ns().saturating_sub(t0) as f64 / 1e6,
            wait.dur_ns as f64 / 1e6,
            exec_ns as f64 / 1e6,
        );
    }

    println!(
        "\nreport: {} workflows, {} released, {} warm-injected, {} orphaned; conservation {}",
        report.workflows,
        report.workflow_released,
        report.warm_injected,
        report.orphaned,
        if report.conservation_holds() {
            "holds"
        } else {
            "VIOLATED"
        }
    );
    assert!(report.conservation_holds());
    assert_eq!(report.workflow_released, labels.len() as u64);
}
