//! Which layer each span belongs to.
//!
//! Layers are the crates of the stack. The traced run attributes time to
//! them two ways: the harness's own spans around public calls (`CALLS`,
//! wall-clock samples) and the obs probes already inside the program
//! (`PROBES`, self time from `Registry::collect`). Both tables name every
//! span explicitly; a phase that is in neither fails the run, so a
//! renamed probe cannot silently drop out of its layer.

use forust_obs::metrics::MetricsReport;

use crate::catalog::Metrics;

/// Harness span → the per-layer metric its wall-clock median feeds.
pub const CALLS: &[(&str, &str)] = &[
    ("bench.new", "core.new_s"),
    ("bench.refine", "core.refine_s"),
    ("bench.partition", "core.partition_s"),
    ("bench.balance", "core.balance_s"),
    ("bench.ghost", "core.ghost_s"),
    ("bench.nodes", "core.nodes_s"),
    ("bench.cycle", "run.op_s"),
    ("bench.step", "run.op_s"),
    ("bench.picard_step", "picard_step_s"),
    ("bench.adapt", "advect.adapt_s"),
];

/// In-program obs probe → the per-layer metric its self time adds to,
/// in seconds per operation (maximum over ranks).
pub const PROBES: &[(&str, &str)] = &[
    // core: the forest algorithms and their exchanges
    ("forest.new", "core.adapt_forest_s"),
    ("forest.refine", "core.adapt_forest_s"),
    ("forest.coarsen", "core.adapt_forest_s"),
    ("forest.balance", "core.adapt_forest_s"),
    ("forest.partition", "core.adapt_forest_s"),
    ("forest.ghost", "core.adapt_forest_s"),
    ("forest.nodes", "core.adapt_forest_s"),
    ("forest.iterate", "core.adapt_forest_s"),
    ("ghost.exchange_begin", "core.adapt_forest_s"),
    ("ghost.exchange_end", "core.adapt_forest_s"),
    ("nodes.assemble_begin", "core.adapt_forest_s"),
    ("nodes.assemble_end", "core.adapt_forest_s"),
    // comm
    ("comm.recover", "comm.recover_s"),
    // dg: kernels, halo, RK, transfer and rebuild
    ("rhs.interior", "dg.rhs_interior_s"),
    ("rhs.boundary", "dg.rhs_boundary_s"),
    ("rhs.exchange_wait", "dg.exchange_wait_s"),
    ("rk.update", "dg.rk_update_s"),
    ("rk.stage", "dg.glue_s"),
    ("halo.begin", "dg.halo_pack_s"),
    ("halo.begin_f32", "dg.halo_pack_s"),
    ("halo.finish", "dg.halo_unpack_s"),
    ("halo.finish_f32", "dg.halo_unpack_s"),
    ("halo.rebuild", "dg.rebuild_s"),
    ("adapt.rebuild", "dg.rebuild_s"),
    ("adapt.transfer", "dg.transfer_s"),
    ("device.step", "dg.device_step_s"),
    // the applications' own driver code
    ("advect.step", "advect.glue_s"),
    ("advect.adapt", "advect.glue_s"),
    ("seismic.step", "seismic.glue_s"),
    ("device.transfer", "seismic.device_transfer_s"),
    ("mantle.solve", "mantle.glue_s"),
    ("mantle.adapt", "mantle.glue_s"),
    ("resilience.checkpoint", "resilience.checkpoint_s"),
];

/// Obs counter → the per-layer count it adds to (summed over ranks, per
/// operation). Counters not listed are not layer metrics.
const COUNTERS: &[(&str, &str)] = &[
    ("kernels.rhs_elements", "dg.rhs_elements"),
    ("device.rhs_elements", "dg.rhs_elements"),
    ("kernels.scratch_grow", "dg.scratch_grow"),
    ("halo.scratch_grow", "dg.scratch_grow"),
];

fn lookup(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
}

/// Fold the traced rounds' obs reports into per-layer metrics, per
/// operation. Returns false if a phase is in neither table.
pub fn reduce(reports: &[MetricsReport], ops: f64, m: &mut Metrics, log: &mut Vec<String>) -> bool {
    let mut all_known = true;
    let (mut tracked, mut uncovered) = (0.0, 0.0);
    for rep in reports {
        for ph in &rep.phases {
            if let Some(metric) = lookup(PROBES, &ph.name) {
                m.add(metric, ph.self_s.max / ops);
                tracked += ph.self_s.mean;
            } else if lookup(CALLS, &ph.name).is_some() {
                // What the harness span saw outside every in-program probe.
                m.add("obs.uncovered_s", ph.self_s.max / ops);
                uncovered += ph.self_s.mean;
            } else {
                log.push(format!(
                    "  UNKNOWN obs phase {:?}: add it to layers::PROBES",
                    ph.name
                ));
                all_known = false;
            }
        }
        for c in &rep.counters {
            if let Some(metric) = lookup(COUNTERS, &c.name) {
                m.add(metric, c.mean * rep.ranks as f64 / ops);
            }
        }
    }
    if tracked + uncovered > 0.0 {
        m.set("obs.coverage", tracked / (tracked + uncovered));
    }
    if let Some(rep) = reports.last() {
        log.push(
            "  obs phases of the last traced round (self seconds, mean over ranks):".to_string(),
        );
        for ph in &rep.phases {
            log.push(format!(
                "    {:<24} calls={:<6} self={:.6} incl_max={:.6}",
                ph.name, ph.calls_max, ph.self_s.mean, ph.total_s.max
            ));
        }
    }
    all_known
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;
    use forust_obs::metrics::{MetricSummary, PhaseSummary};

    fn phase(name: &str, self_s: f64) -> PhaseSummary {
        let s = |v: f64| MetricSummary {
            name: name.to_string(),
            min: v,
            mean: v,
            max: v,
            imbalance: 1.0,
        };
        PhaseSummary {
            name: name.to_string(),
            calls_max: 1,
            total_s: s(self_s),
            self_s: s(self_s),
        }
    }

    fn report(phases: Vec<PhaseSummary>) -> MetricsReport {
        MetricsReport {
            ranks: 2,
            phases,
            ..Default::default()
        }
    }

    #[test]
    fn every_table_row_names_a_catalog_metric_once() {
        let mut spans = std::collections::BTreeSet::new();
        for (span, metric) in CALLS.iter().chain(PROBES).chain(COUNTERS) {
            assert!(PER_LAYER.iter().any(|d| d.name == *metric), "{metric}");
            assert!(spans.insert(*span), "{span} mapped twice");
        }
    }

    #[test]
    fn self_time_lands_in_the_layer_per_op() {
        let mut m = Metrics::new(PER_LAYER);
        let rep = report(vec![
            phase("rhs.interior", 6.0),
            phase("halo.begin", 1.0),
            phase("halo.begin_f32", 1.0),
            phase("bench.step", 2.0),
        ]);
        assert!(reduce(&[rep], 2.0, &mut m, &mut Vec::new()));
        assert_eq!(m.get("dg.rhs_interior_s"), 3.0);
        assert_eq!(m.get("dg.halo_pack_s"), 1.0);
        assert_eq!(m.get("obs.uncovered_s"), 1.0);
        assert_eq!(m.get("obs.coverage"), 0.8);
    }

    #[test]
    fn an_unlisted_phase_fails_the_run() {
        let mut m = Metrics::new(PER_LAYER);
        let mut log = Vec::new();
        let rep = report(vec![phase("rhs.renamed", 1.0)]);
        assert!(!reduce(&[rep], 1.0, &mut m, &mut log));
        assert!(log.iter().any(|l| l.contains("rhs.renamed")));
    }
}
