//! The cluster's data-placement layer: couples
//! [`dscs_storage::object_store::ObjectStore`]'s placement rule into
//! dispatch.
//!
//! The paper's core claim is that pushing compute into the storage drives
//! wins because the data does not move — so the cluster simulation has to
//! know where each request's data *is*. [`DataLayer`] places every object a
//! trace touches with the rack-aware store's own rule
//! ([`ObjectStore::place`]: each rack owns a pod of storage nodes; replicas
//! stay in their home rack, the data-gravity layout the in-storage execution
//! model assumes), but keeps only what dispatch needs — one home rack per
//! object, with no pre-populated store of per-object metadata. It then
//! answers the two questions the simulator asks on the hot path:
//!
//! * which racks hold a replica of this request's object (the locality-aware
//!   balancer's dispatch input), and
//! * what a non-local rack pays to fetch the object — the
//!   [`RemoteFetchModel`] price over the network/RPC stack and the drive's
//!   PCIe hop, replacing the old assumption that every rack reads locally.
//!
//! Placement is deterministic: the same trace, rack count and seed reproduce
//! the same layout, so sharded runs stay byte-for-byte reproducible.

use std::collections::hash_map::Entry;

use dscs_simcore::fasthash::FastMap;
use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::SimDuration;
use dscs_storage::object_store::{ObjectStore, RemoteFetchModel};

use crate::trace::TraceRequest;

/// Storage pod each rack contributes to the store.
const CONVENTIONAL_PER_RACK: u32 = 4;
const DSCS_PER_RACK: u32 = 2;
/// Replication factor of the trace's objects.
const REPLICATION: usize = 3;
/// Replicas stay within the object's home rack (data gravity): in-storage
/// acceleration only pays off where the bytes already are.
const RACK_SPREAD: u32 = 1;
// One home rack per object is the whole replica-rack set only while every
// replica stays in the home rack.
const _: () = assert!(RACK_SPREAD == 1);

/// What one cross-rack fetch of a given size costs: the wall-clock latency
/// charged onto the invocation and the joules the fabric and remote drive
/// spend moving the bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchCost {
    pub(crate) latency: SimDuration,
    pub(crate) energy_j: f64,
}

/// The placement of every object one trace touches, plus the fetch-cost
/// model charged when a request runs on a rack without a replica.
#[derive(Debug, Clone)]
pub struct DataLayer {
    racks: u32,
    /// Storage nodes across all racks' pods.
    nodes: usize,
    /// [`object_key`] -> the rack holding every replica of the object.
    homes: FastMap<u64, u32>,
    fetch: RemoteFetchModel,
    /// Memoized per-size fetch costs (object sizes come from a small
    /// deterministic set, so the hot path never re-prices a fetch).
    fetch_costs: FastMap<Bytes, FetchCost>,
}

impl FetchCost {
    fn of(fetch: &RemoteFetchModel, size: Bytes) -> FetchCost {
        FetchCost {
            latency: fetch.fetch_latency(size),
            energy_j: fetch.fetch_energy_joules(size),
        }
    }
}

/// `(function, object)` packed into one word: function high, object low.
fn object_key(function: u32, object: u32) -> u64 {
    u64::from(function) << 32 | u64::from(object)
}

impl DataLayer {
    /// Builds the layer for `trace` over `racks` racks: a rack-aware store
    /// layout (every rack holds 4 conventional + 2 DSCS storage nodes)
    /// places each distinct object the trace reads, in trace order, from a
    /// placement RNG derived from `seed` — the draws
    /// [`ObjectStore::put`] would make, without storing the objects.
    ///
    /// # Panics
    /// Panics if `racks` is zero.
    pub fn for_trace(trace: &[TraceRequest], racks: u32, seed: u64) -> DataLayer {
        let store = ObjectStore::with_rack_layout(
            racks,
            CONVENTIONAL_PER_RACK,
            DSCS_PER_RACK,
            REPLICATION,
            RACK_SPREAD,
        );
        let mut rng = DeterministicRng::seeded(seed);
        let fetch = RemoteFetchModel::datacenter_default();
        let mut homes: FastMap<u64, u32> = FastMap::default();
        let mut fetch_costs: FastMap<Bytes, FetchCost> = FastMap::default();
        for request in trace {
            let Entry::Vacant(home) = homes.entry(object_key(request.function, request.object))
            else {
                continue;
            };
            // Every benchmark is an ML pipeline over its stored input, so
            // every object is acceleratable: its primary replica lands on a
            // DSCS drive of the home rack.
            let placed = store
                .place(true, &mut rng)
                .expect("rack layout always has DSCS nodes");
            home.insert(placed.home_rack);
            fetch_costs
                .entry(request.object_bytes)
                .or_insert_with(|| FetchCost::of(&fetch, request.object_bytes));
        }
        DataLayer {
            racks,
            nodes: store.node_count(),
            homes,
            fetch,
            fetch_costs,
        }
    }

    /// Number of racks the layer spans.
    pub fn rack_count(&self) -> u32 {
        self.racks
    }

    /// Number of storage nodes across all racks.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of distinct objects placed.
    pub fn object_count(&self) -> usize {
        self.homes.len()
    }

    /// The sorted racks holding a replica of `(function, object)`; empty for
    /// objects the layer never placed.
    pub fn replica_racks(&self, function: u32, object: u32) -> &[u32] {
        self.homes
            .get(&object_key(function, object))
            .map_or(&[], std::slice::from_ref)
    }

    /// Whether `rack` holds a replica of `(function, object)`.
    pub fn holds(&self, function: u32, object: u32, rack: u32) -> bool {
        self.replica_racks(function, object).contains(&rack)
    }

    /// The memoized (or, for sizes the trace never read, freshly priced)
    /// cost of fetching `size` bytes from a remote rack. The simulator's hot
    /// path uses this directly so one lookup yields both charges.
    pub(crate) fn fetch_cost(&self, size: Bytes) -> FetchCost {
        self.fetch_costs
            .get(&size)
            .copied()
            .unwrap_or_else(|| FetchCost::of(&self.fetch, size))
    }

    /// The deterministic latency a rack without a replica pays to fetch
    /// `size` bytes from a remote rack.
    pub fn fetch_latency(&self, size: Bytes) -> SimDuration {
        self.fetch_cost(size).latency
    }

    /// The joules the fabric and the remote drive's PCIe hop spend moving
    /// `size` bytes across racks (the energy side of [`DataLayer::fetch_latency`]).
    pub fn fetch_energy_joules(&self, size: Bytes) -> f64 {
        self.fetch_cost(size).energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RateProfile;
    use crate::workload::{ObjectCatalog, Workload};

    fn short_trace(seed: u64) -> Vec<TraceRequest> {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 120.0)],
        };
        Workload::generate(&profile, &mut DeterministicRng::seeded(seed)).expect("valid")
    }

    #[test]
    fn covers_every_object_the_trace_reads() {
        let trace = short_trace(1);
        let data = DataLayer::for_trace(&trace, 3, 7);
        assert!(data.object_count() > 0);
        for (i, request) in trace.iter().enumerate() {
            let racks = data.replica_racks(request.function, request.object);
            assert!(!racks.is_empty(), "request {i} unplaced");
            assert!(racks.iter().all(|&r| r < 3), "rack out of range: {racks:?}");
        }
        assert_eq!(data.rack_count(), 3);
        assert_eq!(
            data.node_count(),
            3 * (CONVENTIONAL_PER_RACK + DSCS_PER_RACK) as usize
        );
    }

    /// The layer's placement is [`ObjectStore`]'s: putting the trace's
    /// objects into a rack-aware store in trace order, from the same seed,
    /// yields the same replica racks for every object.
    #[test]
    fn placement_matches_an_object_store_populated_in_trace_order() {
        for racks in 1..=4 {
            for seed in [3, 19, 1000] {
                let trace = short_trace(seed);
                let data = DataLayer::for_trace(&trace, racks, seed);
                let mut store = ObjectStore::with_rack_layout(
                    racks,
                    CONVENTIONAL_PER_RACK,
                    DSCS_PER_RACK,
                    REPLICATION,
                    RACK_SPREAD,
                );
                let mut rng = DeterministicRng::seeded(seed);
                for request in &trace {
                    let key = ObjectCatalog::key(request.function, request.object);
                    if store.get(&key).is_err() {
                        store
                            .put(&key, request.object_bytes, true, &mut rng)
                            .expect("rack layout has DSCS nodes");
                    }
                    assert_eq!(
                        data.replica_racks(request.function, request.object),
                        store.racks_holding(&key).expect("placed"),
                        "{key} on {racks} racks, seed {seed}"
                    );
                }
                assert_eq!(data.object_count(), store.object_count());
            }
        }
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let trace = short_trace(2);
        let a = DataLayer::for_trace(&trace, 4, 9);
        let b = DataLayer::for_trace(&trace, 4, 9);
        for request in &trace {
            assert_eq!(
                a.replica_racks(request.function, request.object),
                b.replica_racks(request.function, request.object)
            );
        }
    }

    #[test]
    fn unplaced_objects_report_no_replicas() {
        let trace = short_trace(3);
        let data = DataLayer::for_trace(&trace, 2, 11);
        assert!(data.replica_racks(9999, 0).is_empty());
        assert!(!data.holds(9999, 0, 0));
    }

    #[test]
    fn fetch_latency_is_positive_and_monotone_in_size() {
        let trace = short_trace(4);
        let data = DataLayer::for_trace(&trace, 2, 13);
        let small = data.fetch_latency(Bytes::from_kib(256));
        let large = data.fetch_latency(Bytes::from_mib(8));
        assert!(small > SimDuration::ZERO);
        assert!(large > small);
    }

    #[test]
    fn fetch_energy_is_positive_and_monotone_in_size() {
        let trace = short_trace(5);
        let data = DataLayer::for_trace(&trace, 2, 17);
        let small = data.fetch_energy_joules(Bytes::from_kib(256));
        let large = data.fetch_energy_joules(Bytes::from_mib(8));
        assert!(small > 0.0);
        assert!(large > small);
        // Memoized and uncached sizes price identically.
        for request in &trace {
            assert_eq!(
                data.fetch_energy_joules(request.object_bytes),
                DataLayer::for_trace(&trace, 2, 17).fetch_energy_joules(request.object_bytes)
            );
        }
    }
}
