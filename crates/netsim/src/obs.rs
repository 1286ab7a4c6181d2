//! Engine-side observation: a [`SimObserver`] the engine fills in when
//! attached through [`SimOptions::observer`], and the [`LinkHeatmap`]
//! time series it carries.
//!
//! Observation is strictly *passive*: the engine records into the
//! observer but never branches on it, and the observed code path
//! performs exactly the same float operations as the unobserved one —
//! so an observed run produces a bit-identical [`SimReport`] to an
//! unobserved [`Simulator::simulate`] on the same inputs. Every recorded
//! quantity is keyed on simulated time and is therefore reproducible
//! run-over-run and across any thread fan-out above the engine.
//!
//! [`Simulator::simulate`]: crate::Simulator::simulate
//! [`SimOptions::observer`]: crate::SimOptions::observer
//! [`SimReport`]: crate::SimReport

/// One heatmap sample: the fluid state at a waterfill epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapSample {
    /// Simulated time of the rate recomputation.
    pub time: f64,
    /// The engine's rate-epoch counter after the recomputation.
    pub epoch: u64,
    /// Sparse per-resource bytes in flight, sorted by resource id with
    /// zero cells omitted: the sum of remaining bytes of every *active*
    /// flow whose route crosses the resource. Stalled flows are
    /// excluded, mirroring the waterfill's demand set. (Sparse because
    /// sparse patterns touch a tiny fraction of the links — a dense row
    /// per epoch held ~1 GB of zeros at the 8k-node scale point.)
    pub bytes_in_flight: Vec<(u32, f64)>,
}

/// Time series of per-resource bytes-in-flight, sampled at every
/// waterfill epoch (flow arrivals, departures and fault events — exactly
/// the instants where rates change).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkHeatmap {
    pub samples: Vec<HeatmapSample>,
}

impl LinkHeatmap {
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// One contention shard folded into a run's merged result: which shard
/// (canonical order: ascending minimum transfer id), how many transfers
/// it carried, and when its own event queue drained. A single-component
/// run records exactly one entry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardMerge {
    /// Canonical shard index within the run.
    pub shard: u32,
    /// Transfers executed by this shard.
    pub transfers: u32,
    /// Simulation clock when this shard's queue drained (the run's
    /// `end_time` is the max over shards).
    pub end_time: f64,
}

/// Collected engine events for one observed run. Counters accumulate, so
/// one observer can be threaded through several runs (e.g. the attempts
/// of a resilient retry loop).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimObserver {
    /// Rate recomputations performed (waterfill re-runs).
    pub waterfill_runs: u64,
    /// Re-levels solved over the *entire* active set — the incremental
    /// solver's fallback once the dirty closure passes its threshold,
    /// and every re-level under [`crate::SolverMode::Full`].
    pub waterfill_full_runs: u64,
    /// Re-levels confined to the dirty flow/link closure
    /// ([`crate::SolverMode::Incremental`]); rates outside the closure
    /// were reused unchanged.
    pub waterfill_incremental_runs: u64,
    /// Events popped from the engine's queue (the denominator for
    /// events/sec in scaling sweeps).
    pub events_processed: u64,
    /// Fault events applied from the plan.
    pub fault_events: u64,
    /// `(time, transfer)` pairs for flows frozen by a fault — either
    /// caught mid-flight by a re-partition or born stalled.
    pub stalls: Vec<(f64, u32)>,
    /// `(time, transfer)` pairs for flows resumed by a recovery.
    pub resumes: Vec<(f64, u32)>,
    /// Transfers that did not reach `Delivered` by the end of a run
    /// (stalled or never started) — the silent remainder that
    /// `aggregate_throughput` guards against.
    pub transfers_undelivered: u64,
    /// Contention shards executed (one per connected component of the
    /// transfer graph's shared-link/shared-source/dependency relation).
    pub shards: u64,
    /// One record per shard folded into a merged result, in canonical
    /// shard order per run.
    pub shard_merges: Vec<ShardMerge>,
    /// Per-resource bytes-in-flight at every waterfill epoch.
    pub heatmap: LinkHeatmap,
}

impl SimObserver {
    pub fn new() -> SimObserver {
        SimObserver::default()
    }

    /// Export the observer's counters as named scalars under `prefix`
    /// (e.g. `"multipath."`), sorted by name — the extraction hook the
    /// run-ledger uses to fold engine-side counts (waterfill solve
    /// split, stall/resume totals, undelivered remainder) into a
    /// [`bgq_obs::ScenarioManifest`] without reaching into fields.
    /// Every value is an integer count cast to `f64`, so the scalars
    /// inherit the engine's bit-determinism.
    ///
    /// [`bgq_obs::ScenarioManifest`]: https://docs.rs/bgq-obs
    pub fn scalars(&self, prefix: &str) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = vec![
            ("events_processed".to_string(), self.events_processed as f64),
            ("fault_events".to_string(), self.fault_events as f64),
            ("heatmap_epochs".to_string(), self.heatmap.len() as f64),
            ("resumes".to_string(), self.resumes.len() as f64),
            ("shard_merges".to_string(), self.shard_merges.len() as f64),
            ("shards".to_string(), self.shards as f64),
            ("stalls".to_string(), self.stalls.len() as f64),
            (
                "transfers_undelivered".to_string(),
                self.transfers_undelivered as f64,
            ),
            (
                "waterfill_full_runs".to_string(),
                self.waterfill_full_runs as f64,
            ),
            (
                "waterfill_incremental_runs".to_string(),
                self.waterfill_incremental_runs as f64,
            ),
            ("waterfill_runs".to_string(), self.waterfill_runs as f64),
        ];
        for (name, _) in &mut out {
            *name = format!("{prefix}{name}");
        }
        out
    }

    /// Lengths of the event streams before a shard merge begins; the
    /// region past the mark is what [`seal_merge`](Self::seal_merge)
    /// re-orders. Regions from earlier runs threaded through the same
    /// observer are never touched.
    pub(crate) fn mark(&self) -> ObsMark {
        ObsMark {
            stalls: self.stalls.len(),
            resumes: self.resumes.len(),
            samples: self.heatmap.samples.len(),
        }
    }

    /// Fold one shard's observer into this one, remapping its local
    /// transfer ids through `tids` and its local resource ids through
    /// `resources` (both sorted ascending, so remapped streams keep
    /// their relative order). Streams are appended in call (canonical
    /// shard) order; [`seal_merge`](Self::seal_merge) restores global
    /// time order afterwards. `transfers_undelivered`, `shards` and
    /// `shard_merges` are owned by the merge layer, not summed here.
    pub(crate) fn absorb_shard(&mut self, local: SimObserver, tids: &[u32], resources: &[u32]) {
        self.waterfill_runs += local.waterfill_runs;
        self.waterfill_full_runs += local.waterfill_full_runs;
        self.waterfill_incremental_runs += local.waterfill_incremental_runs;
        self.events_processed += local.events_processed;
        self.fault_events += local.fault_events;
        self.stalls
            .extend(local.stalls.into_iter().map(|(t, id)| (t, tids[id as usize])));
        self.resumes
            .extend(local.resumes.into_iter().map(|(t, id)| (t, tids[id as usize])));
        self.heatmap
            .samples
            .extend(local.heatmap.samples.into_iter().map(|s| HeatmapSample {
                time: s.time,
                epoch: s.epoch,
                bytes_in_flight: s
                    .bytes_in_flight
                    .into_iter()
                    .map(|(r, v)| (resources[r as usize], v))
                    .collect(),
            }));
    }

    /// Restore global time order over the streams appended since `mark`
    /// (stable sort: entries at equal times keep canonical shard
    /// order), and renumber the new heatmap samples' epochs 1.. — the
    /// same numbering a single event loop over the whole run produces.
    pub(crate) fn seal_merge(&mut self, mark: ObsMark) {
        self.stalls[mark.stalls..].sort_by(|a, b| a.0.total_cmp(&b.0));
        self.resumes[mark.resumes..].sort_by(|a, b| a.0.total_cmp(&b.0));
        let region = &mut self.heatmap.samples[mark.samples..];
        region.sort_by(|a, b| a.time.total_cmp(&b.time));
        for (i, s) in region.iter_mut().enumerate() {
            s.epoch = i as u64 + 1;
        }
    }
}

/// Stream lengths captured by [`SimObserver::mark`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObsMark {
    stalls: usize,
    resumes: usize,
    samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_export_is_sorted_and_prefixed() {
        let mut obs = SimObserver::new();
        obs.waterfill_runs = 10;
        obs.waterfill_full_runs = 3;
        obs.waterfill_incremental_runs = 7;
        obs.stalls.push((1.0, 4));
        let s = obs.scalars("sim.");
        assert!(s.iter().all(|(k, _)| k.starts_with("sim.")));
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0), "sorted: {s:?}");
        let get = |name: &str| s.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(get("sim.waterfill_runs"), Some(10.0));
        assert_eq!(get("sim.waterfill_full_runs"), Some(3.0));
        assert_eq!(get("sim.waterfill_incremental_runs"), Some(7.0));
        assert_eq!(get("sim.stalls"), Some(1.0));
        assert_eq!(get("sim.transfers_undelivered"), Some(0.0));
    }

    #[test]
    fn absorb_and_seal_restore_time_order_and_remap_ids() {
        // Shard A (global tids [0, 2], resources [4, 7]) and shard B
        // (global tids [1], resources [5]) merge in canonical order;
        // sealing interleaves their streams back into time order and
        // renumbers the heatmap epochs like one sequential loop.
        let mut a = SimObserver::new();
        a.events_processed = 3;
        a.stalls.push((2.0, 1)); // local tid 1 -> global 2
        a.heatmap.samples.push(HeatmapSample {
            time: 1.0,
            epoch: 1,
            bytes_in_flight: vec![(0, 10.0), (1, 20.0)],
        });
        a.heatmap.samples.push(HeatmapSample {
            time: 3.0,
            epoch: 2,
            bytes_in_flight: vec![(1, 5.0)],
        });
        let mut b = SimObserver::new();
        b.events_processed = 2;
        b.stalls.push((1.0, 0)); // local tid 0 -> global 1
        b.heatmap.samples.push(HeatmapSample {
            time: 2.0,
            epoch: 1,
            bytes_in_flight: vec![(0, 7.0)],
        });

        let mut merged = SimObserver::new();
        let mark = merged.mark();
        merged.absorb_shard(a, &[0, 2], &[4, 7]);
        merged.absorb_shard(b, &[1], &[5]);
        merged.seal_merge(mark);

        assert_eq!(merged.events_processed, 5);
        assert_eq!(merged.stalls, vec![(1.0, 1), (2.0, 2)]);
        let rows: Vec<(u64, f64)> = merged
            .heatmap
            .samples
            .iter()
            .map(|s| (s.epoch, s.time))
            .collect();
        assert_eq!(rows, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
        let flights: Vec<&[(u32, f64)]> = merged
            .heatmap
            .samples
            .iter()
            .map(|s| s.bytes_in_flight.as_slice())
            .collect();
        assert_eq!(
            flights,
            vec![
                &[(4, 10.0), (7, 20.0)][..],
                &[(5, 7.0)][..],
                &[(7, 5.0)][..],
            ]
        );
    }
}
