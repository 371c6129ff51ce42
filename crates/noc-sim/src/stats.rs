//! Simulation statistics.
//!
//! Only packets injected after warm-up are "measured" (the paper warms the
//! simulator for 1000 cycles, §4.1). Event counters (link traversals, sideband
//! activity) feed the energy model in `noc-power`.

use noc_types::{Cycle, Flit, MessageClass, NodeId, PacketId};

/// Everything known about a packet at the moment its tail flit is consumed at
/// the destination NIC. Passed to [`crate::workload::Workload::deliver`] and
/// folded into [`Stats`].
#[derive(Clone, Copy, Debug)]
pub struct DeliveredPacket {
    pub id: PacketId,
    pub src: NodeId,
    pub dest: NodeId,
    pub class: MessageClass,
    pub len_flits: u8,
    /// Cycle the packet entered the source NIC queue.
    pub birth: Cycle,
    /// Cycle the head flit entered the network.
    pub inject: Cycle,
    /// Cycle the tail flit was consumed at the destination.
    pub eject: Cycle,
    /// Link traversals of the head flit (counts misroutes).
    pub hops: u8,
    /// Cycle the packet was upgraded to Free Flow, if it was.
    pub ff_upgrade: Option<Cycle>,
    pub measured: bool,
}

impl DeliveredPacket {
    /// Total latency: NIC queue entry to consumption.
    pub fn total_latency(&self) -> u64 {
        self.eject - self.birth
    }

    /// Network latency: injection to consumption.
    pub fn network_latency(&self) -> u64 {
        self.eject - self.inject
    }

    /// Time spent in the source NIC queue.
    pub fn queue_latency(&self) -> u64 {
        self.inject - self.birth
    }
}

/// Fixed window length (cycles) for peak-activity tracking (Fig 11's "peak"
/// link energy is the busiest window).
pub const ACTIVITY_WINDOW: u64 = 1000;

/// One epoch of a dynamic fault schedule as the engine executed it: the
/// event that opened the epoch and what reconfiguration found. Appended to
/// [`Stats::epochs`] by the chaos layer so a run's fault timeline is fully
/// reconstructable from its statistics.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Cycle the schedule event was applied.
    pub cycle: Cycle,
    /// Canonical event rendering (`at:code:node[:dir]`, matching
    /// `FaultSchedule::canonical`).
    pub action: String,
    /// Whether every live source/destination pair remained routable after
    /// the rebuild (false ⇒ the stranded-packet purge was armed).
    pub routable: bool,
    /// Whether the west-first escape layer survived intact (always true for
    /// schemes without escape VCs).
    pub escape_ok: bool,
    /// Flits purged from severed routes while this epoch was the newest one
    /// (recovered by end-to-end retransmission or counted abandoned).
    pub purged_flits: u64,
    /// Cycle a kill's drain-cut actually severed the wiring (in-flight
    /// traffic finished first); `None` for heals and for cuts still pending
    /// at run end.
    pub cut_done_at: Option<Cycle>,
    /// Degraded-CDG certifier verdict for this epoch's topology, filled in
    /// by harnesses that re-certify online (`noc-verify` cannot be called
    /// from the engine — it depends on this crate).
    pub recert: Option<String>,
}

/// Aggregate statistics for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Measured packets that entered NIC injection queues.
    pub generated_packets: u64,
    /// Measured packets fully injected into the network.
    pub injected_packets: u64,
    /// Measured flits injected.
    pub injected_flits: u64,
    /// Measured packets consumed at their destination.
    pub ejected_packets: u64,
    /// Measured flits consumed.
    pub ejected_flits: u64,
    /// *All* packets consumed after warm-up, measured or not. Past
    /// saturation, source queues grow without bound and packets born after
    /// warm-up may never inject; accepted throughput must therefore count
    /// every post-warm-up delivery (as Garnet does), while latency statistics
    /// stay restricted to measured packets.
    pub ejected_packets_all: u64,
    /// All flits consumed after warm-up.
    pub ejected_flits_all: u64,

    /// Sum over ejected measured packets of total latency.
    pub sum_total_latency: u64,
    /// Sum of network (inject→eject) latency.
    pub sum_network_latency: u64,
    /// Sum of NIC queueing latency.
    pub sum_queue_latency: u64,
    /// Largest total latency seen (Fig 15's tail metric).
    pub max_total_latency: u64,
    /// Sum of head-flit hop counts.
    pub sum_hops: u64,

    /// Measured packets that were upgraded to Free Flow at some point.
    pub ff_packets: u64,
    /// All post-warm-up deliveries that used Free Flow (basis for Fig 10a's
    /// fraction — measured packets starve past saturation).
    pub ff_packets_all: u64,
    /// The FF latency split (Fig 10b), summed over the same post-warm-up
    /// deliveries as [`Stats::ff_packets_all`]. Of FF packets: cycles in the
    /// source queue (birth → inject; a queue-rescued packet's whole wait).
    pub sum_ff_queued: u64,
    /// Of FF packets: cycles spent before the upgrade (buffered traversal).
    pub sum_ff_buffered: u64,
    /// Of FF packets: cycles spent after the upgrade (bufferless traversal).
    pub sum_ff_bufferless: u64,
    /// Of never-upgraded post-warm-up deliveries: total network latency.
    pub sum_regular_latency: u64,

    /// Data-link flit traversals (all flits, measured or not, incl. FF and
    /// misroutes). Feeds the energy model.
    pub link_flit_hops: u64,
    /// Buffer writes (flit enqueued into a router VC).
    pub buffer_writes: u64,
    /// Buffer reads (flit dequeued from a router VC).
    pub buffer_reads: u64,
    /// Seeker side-band hops (16-bit link activity).
    pub sideband_hops: u64,
    /// Lookahead side-band hops (10-bit link activity).
    pub lookahead_hops: u64,
    /// SPIN probe hops on the data links.
    pub probe_hops: u64,
    /// Flits that traversed a token-held hop under TFC (buffer bypasses;
    /// credited by the energy model).
    pub tfc_bypasses: u64,
    /// Hops that moved a packet away from (or not toward) its destination:
    /// deflections, swaps, drains.
    pub misroute_hops: u64,
    /// Packets forcibly relocated by a subactive/reactive event (swap, drain,
    /// spin) — event counter for diagnostics.
    pub forced_moves: u64,
    /// Deadlock-recovery events triggered (SPIN spins, timeouts fired).
    pub recovery_events: u64,

    /// Victim packets drained through the serialized recovery channel by the
    /// runtime recovery layer (`noc-sim::recovery`). Distinct from
    /// [`Stats::recovery_events`], which counts *detections* (SPIN probe
    /// launches, link-layer timeouts); a drain is a detection converted into
    /// forward progress.
    pub drain_recoveries: u64,
    /// Recovery-channel link hops taken by drained victims (head-flit hops;
    /// the recovery cost axis of `recovery_sweep`).
    pub recovery_victim_hops: u64,
    /// Cycles victims spent in transit through the recovery channel
    /// (serialized one-flit-deep escape path; the latency cost of recovery).
    pub recovery_cycles_lost: u64,
    /// Whole-packet copies re-injected by the NIC end-to-end retransmission
    /// layer after a delivery timeout.
    pub e2e_retransmits: u64,
    /// Duplicate deliveries suppressed at ejection (an original and its
    /// end-to-end retransmission copy both arrived; exactly one was
    /// delivered).
    pub e2e_duplicates_dropped: u64,
    /// Packets the end-to-end layer gave up on after exhausting its retry
    /// budget.
    pub e2e_abandoned: u64,

    /// Link traversals the fault layer corrupted (detectable checksum
    /// damage; each corruption forces at least one retransmission).
    pub corrupted_flits: u64,
    /// Flit re-sends performed by the link-layer retransmission protocol
    /// (go-back-N resends after a nack or timeout). The retransmission
    /// overhead of a run is `retransmitted_flits / link_flit_hops`.
    pub retransmitted_flits: u64,
    /// Ack events on the link-layer control wires.
    pub link_acks: u64,
    /// Nack events on the link-layer control wires.
    pub link_nacks: u64,

    /// Fault-schedule events applied (each opens a reconfiguration epoch).
    pub chaos_epochs: u64,
    /// Links killed / healed by the schedule.
    pub chaos_links_killed: u64,
    pub chaos_links_healed: u64,
    /// Routers killed / healed by the schedule.
    pub chaos_routers_killed: u64,
    pub chaos_routers_healed: u64,
    /// Flits purged off severed routes by epoch reconfiguration (stranded
    /// packets with no surviving path, and traffic marooned at dead
    /// routers). Purged flits leave the network without being consumed;
    /// flit conservation accounts for them separately, and the end-to-end
    /// retransmission layer re-sends their packets (or abandons them).
    pub chaos_purged_flits: u64,
    /// The epoch trace: one record per applied schedule event.
    pub epochs: Vec<EpochRecord>,

    /// Per-directed-link traversal counts, indexed `node * NUM_PORTS + port`
    /// (filled lazily; see [`Stats::count_link_hop_at`]). Feeds utilization
    /// heat maps and per-link hotspot analysis.
    pub link_use: Vec<u64>,
    /// Peak link activity in any [`ACTIVITY_WINDOW`]: data + probe hops.
    pub peak_window_link_hops: u64,
    window_start: Cycle,
    window_hops: u64,

    /// Cycle measurement began (end of warm-up).
    pub measure_start: Cycle,
    /// Cycle the run finished.
    pub end_cycle: Cycle,

    /// Per-message-class total-latency samples of measured deliveries
    /// (grown lazily per class; sorted by [`Stats::finish`] so the
    /// percentile accessors are exact, not streaming approximations).
    latency_samples: Vec<Vec<u32>>,
}

impl Stats {
    /// Records a data-link flit traversal at `cycle` (also drives the peak
    /// window tracker).
    pub fn count_link_hop(&mut self, cycle: Cycle) {
        self.link_flit_hops += 1;
        self.bump_window(cycle, 1);
    }

    /// Like [`Self::count_link_hop`], additionally attributing the traversal
    /// to a specific directed link for utilization maps.
    pub fn count_link_hop_at(&mut self, cycle: Cycle, node: NodeId, port: usize) {
        self.count_link_hop(cycle);
        let i = node.idx() * noc_types::NUM_PORTS + port;
        if i >= self.link_use.len() {
            self.link_use.resize(i + 1, 0);
        }
        self.link_use[i] += 1;
    }

    /// Traversal count of the directed link leaving `node` through `port`.
    pub fn link_use_at(&self, node: NodeId, port: usize) -> u64 {
        self.link_use
            .get(node.idx() * noc_types::NUM_PORTS + port)
            .copied()
            .unwrap_or(0)
    }

    /// Records a SPIN probe hop (probes ride the data links).
    pub fn count_probe_hop(&mut self, cycle: Cycle) {
        self.probe_hops += 1;
        self.bump_window(cycle, 1);
    }

    fn bump_window(&mut self, cycle: Cycle, n: u64) {
        if cycle >= self.window_start + ACTIVITY_WINDOW {
            self.peak_window_link_hops = self.peak_window_link_hops.max(self.window_hops);
            // Skip forward to the window containing `cycle`.
            let w = (cycle - self.window_start) / ACTIVITY_WINDOW;
            self.window_start += w * ACTIVITY_WINDOW;
            self.window_hops = 0;
        }
        self.window_hops += n;
    }

    /// Folds a delivered packet into the aggregates.
    pub fn record_delivery(&mut self, p: &DeliveredPacket) {
        if p.eject >= self.measure_start {
            self.ejected_packets_all += 1;
            self.ejected_flits_all += p.len_flits as u64;
            if let Some(up) = p.ff_upgrade {
                self.ff_packets_all += 1;
                self.sum_ff_queued += p.queue_latency();
                self.sum_ff_buffered += up.saturating_sub(p.inject);
                self.sum_ff_bufferless += p.eject.saturating_sub(up);
            } else {
                self.sum_regular_latency += p.network_latency();
            }
        }
        if !p.measured {
            return;
        }
        self.ejected_packets += 1;
        self.ejected_flits += p.len_flits as u64;
        let total = p.total_latency();
        self.sum_total_latency += total;
        self.sum_network_latency += p.network_latency();
        self.sum_queue_latency += p.queue_latency();
        self.max_total_latency = self.max_total_latency.max(total);
        let cls = p.class.idx();
        if cls >= self.latency_samples.len() {
            self.latency_samples.resize(cls + 1, Vec::new());
        }
        self.latency_samples[cls].push(u32::try_from(total).unwrap_or(u32::MAX));
        self.sum_hops += p.hops as u64;
        if p.ff_upgrade.is_some() {
            self.ff_packets += 1;
        }
    }

    /// Records injection of a measured flit.
    pub fn record_injected_flit(&mut self, f: &Flit) {
        if f.measured {
            self.injected_flits += 1;
            if f.kind.is_tail() {
                self.injected_packets += 1;
            }
        }
    }

    /// Mean total packet latency (queue + network), the paper's
    /// "average packet latency".
    pub fn avg_total_latency(&self) -> f64 {
        ratio(self.sum_total_latency, self.ejected_packets)
    }

    /// Mean network latency (inject → eject).
    pub fn avg_network_latency(&self) -> f64 {
        ratio(self.sum_network_latency, self.ejected_packets)
    }

    /// Mean hops per packet.
    pub fn avg_hops(&self) -> f64 {
        ratio(self.sum_hops, self.ejected_packets)
    }

    /// Accepted throughput in packets/node/cycle over the measurement phase
    /// (counts every post-warm-up delivery; see [`Self::ejected_packets_all`]).
    pub fn throughput(&self, nodes: usize) -> f64 {
        let cycles = self.end_cycle.saturating_sub(self.measure_start);
        if cycles == 0 || nodes == 0 {
            return 0.0;
        }
        self.ejected_packets_all as f64 / (nodes as f64 * cycles as f64)
    }

    /// Fraction of received packets that used Free Flow (Fig 10a), over all
    /// post-warm-up deliveries.
    pub fn ff_fraction(&self) -> f64 {
        ratio(self.ff_packets_all, self.ejected_packets_all)
    }

    /// Mean reception rate of *flits* per node per cycle.
    pub fn flit_throughput(&self, nodes: usize) -> f64 {
        let cycles = self.end_cycle.saturating_sub(self.measure_start);
        if cycles == 0 || nodes == 0 {
            return 0.0;
        }
        self.ejected_flits_all as f64 / (nodes as f64 * cycles as f64)
    }

    /// Finalizes the peak window tracker at the end of a run and sorts the
    /// latency samples so the percentile accessors are exact.
    pub fn finish(&mut self, end: Cycle) {
        self.end_cycle = end;
        self.peak_window_link_hops = self.peak_window_link_hops.max(self.window_hops);
        for samples in &mut self.latency_samples {
            samples.sort_unstable();
        }
    }

    /// Nearest-rank `q`-th percentile (`0 < q <= 100`) of total latency over
    /// measured deliveries of `class`; `None` when the class saw no measured
    /// delivery. Exact once [`Stats::finish`] has sorted the samples.
    pub fn percentile_latency(&self, class: MessageClass, q: f64) -> Option<u64> {
        let s = self.latency_samples.get(class.idx())?;
        percentile_sorted(s, q)
    }

    /// Nearest-rank `q`-th percentile of total latency over *all* measured
    /// deliveries, merged across classes.
    pub fn percentile_latency_all(&self, q: f64) -> Option<u64> {
        let mut all: Vec<u32> = self
            .latency_samples
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        all.sort_unstable();
        percentile_sorted(&all, q)
    }

    /// Median total latency over all measured deliveries; `None` when the
    /// run delivered nothing measured (empty sample sets never panic —
    /// nearest-rank indexing is guarded end to end).
    pub fn p50(&self) -> Option<u64> {
        self.percentile_latency_all(50.0)
    }

    /// 95th-percentile total latency; `None` on an empty sample set.
    pub fn p95(&self) -> Option<u64> {
        self.percentile_latency_all(95.0)
    }

    /// 99th-percentile total latency; `None` on an empty sample set.
    pub fn p99(&self) -> Option<u64> {
        self.percentile_latency_all(99.0)
    }

    /// Message classes that recorded at least one measured delivery.
    pub fn classes_with_latency(&self) -> impl Iterator<Item = MessageClass> + '_ {
        self.latency_samples
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(c, _)| MessageClass(c as u8))
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set.
fn percentile_sorted(sorted: &[u32], q: f64) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let rank = ((q / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(u64::from(sorted[rank - 1]))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::MessageClass;

    fn pkt(birth: Cycle, inject: Cycle, eject: Cycle, ff: Option<Cycle>) -> DeliveredPacket {
        DeliveredPacket {
            id: PacketId(0),
            src: NodeId(0),
            dest: NodeId(1),
            class: MessageClass(0),
            len_flits: 5,
            birth,
            inject,
            eject,
            hops: 3,
            ff_upgrade: ff,
            measured: true,
        }
    }

    #[test]
    fn latency_decomposition() {
        let p = pkt(10, 14, 30, None);
        assert_eq!(p.total_latency(), 20);
        assert_eq!(p.queue_latency(), 4);
        assert_eq!(p.network_latency(), 16);
    }

    #[test]
    fn delivery_aggregation() {
        let mut s = Stats::default();
        s.record_delivery(&pkt(0, 2, 12, None));
        s.record_delivery(&pkt(0, 2, 22, Some(10)));
        assert_eq!(s.ejected_packets, 2);
        assert_eq!(s.avg_total_latency(), 17.0);
        assert_eq!(s.max_total_latency, 22);
        assert_eq!(s.ff_packets, 1);
        assert_eq!(s.sum_ff_queued, 2); // birth 0 → inject 2
        assert_eq!(s.sum_ff_buffered, 8); // inject 2 → upgrade 10
        assert_eq!(s.sum_ff_bufferless, 12); // upgrade 10 → eject 22
        assert_eq!(s.sum_regular_latency, 10);
    }

    #[test]
    fn ff_split_counts_every_post_warm_up_delivery() {
        let mut s = Stats {
            measure_start: 100,
            ..Stats::default()
        };
        // Born before warm-up, queue-rescued at 150 (inject = upgrade).
        let mut rescued = pkt(40, 150, 170, Some(150));
        rescued.measured = false;
        s.record_delivery(&rescued);
        // Delivered before the window opens: counted nowhere.
        let mut early = pkt(10, 20, 90, Some(30));
        early.measured = false;
        s.record_delivery(&early);
        assert_eq!((s.ff_packets, s.ff_packets_all), (0, 1));
        assert_eq!(s.sum_ff_queued, 110);
        assert_eq!(s.sum_ff_buffered, 0);
        assert_eq!(s.sum_ff_bufferless, 20);
    }

    #[test]
    fn unmeasured_packets_are_ignored() {
        let mut s = Stats::default();
        let mut p = pkt(0, 1, 5, None);
        p.measured = false;
        s.record_delivery(&p);
        assert_eq!(s.ejected_packets, 0);
    }

    #[test]
    fn peak_window_tracks_busiest_window() {
        let mut s = Stats::default();
        for c in 0..10 {
            s.count_link_hop(c);
        }
        for c in ACTIVITY_WINDOW..ACTIVITY_WINDOW + 500 {
            s.count_link_hop(c);
        }
        s.finish(2 * ACTIVITY_WINDOW);
        assert_eq!(s.peak_window_link_hops, 500);
        assert_eq!(s.link_flit_hops, 510);
    }

    #[test]
    fn percentiles_are_nearest_rank_per_class() {
        let mut s = Stats::default();
        // Class 0: total latencies 10, 20, ..., 100.
        for k in 1..=10u64 {
            s.record_delivery(&pkt(0, 2, 10 * k, None));
        }
        // Class 2: a single delivery of latency 7.
        let mut p = pkt(0, 2, 7, None);
        p.class = MessageClass(2);
        s.record_delivery(&p);
        s.finish(1000);
        let c0 = MessageClass(0);
        assert_eq!(s.percentile_latency(c0, 50.0), Some(50));
        assert_eq!(s.percentile_latency(c0, 95.0), Some(100));
        assert_eq!(s.percentile_latency(c0, 99.0), Some(100));
        assert_eq!(s.percentile_latency(c0, 100.0), Some(100));
        // Out-of-range quantiles and empty classes return None.
        assert_eq!(s.percentile_latency(c0, 0.0), Some(10));
        assert_eq!(s.percentile_latency(c0, 101.0), None);
        assert_eq!(s.percentile_latency(MessageClass(1), 50.0), None);
        assert_eq!(s.percentile_latency(MessageClass(9), 50.0), None);
        // Single-sample class: every quantile is that sample.
        assert_eq!(s.percentile_latency(MessageClass(2), 50.0), Some(7));
        assert_eq!(s.percentile_latency(MessageClass(2), 99.0), Some(7));
        // Merged percentile covers both classes (7 is the new minimum).
        assert_eq!(s.percentile_latency_all(1.0), Some(7));
        assert_eq!(s.percentile_latency_all(99.0), Some(100));
        let classes: Vec<u8> = s.classes_with_latency().map(|c| c.0).collect();
        assert_eq!(classes, vec![0, 2]);
    }

    #[test]
    fn percentile_accessors_survive_empty_sample_sets() {
        // A fresh Stats has no samples at all: every accessor must return
        // None instead of panicking on a nearest-rank index underflow.
        let mut s = Stats::default();
        assert_eq!(s.p50(), None);
        assert_eq!(s.p95(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s.percentile_latency_all(50.0), None);
        // Still None after finish() (sorting empty sets is a no-op), and
        // still None when only unmeasured traffic flowed.
        s.finish(100);
        assert_eq!(s.p99(), None);
        let mut p = pkt(0, 2, 40, None);
        p.measured = false;
        s.record_delivery(&p);
        assert_eq!(s.p50(), None);
        // One measured delivery: every percentile is that sample.
        s.record_delivery(&pkt(0, 2, 40, None));
        s.finish(100);
        assert_eq!(s.p50(), Some(40));
        assert_eq!(s.p95(), Some(40));
        assert_eq!(s.p99(), Some(40));
    }

    #[test]
    fn percentiles_ignore_unmeasured_deliveries() {
        let mut s = Stats::default();
        let mut p = pkt(0, 2, 500, None);
        p.measured = false;
        s.record_delivery(&p);
        s.finish(1000);
        assert_eq!(s.percentile_latency(MessageClass(0), 50.0), None);
        assert_eq!(s.classes_with_latency().count(), 0);
    }

    #[test]
    fn throughput_normalizes_by_nodes_and_cycles() {
        let mut s = Stats {
            measure_start: 1000,
            ejected_packets_all: 640,
            ..Stats::default()
        };
        s.finish(2000);
        assert!((s.throughput(64) - 0.01).abs() < 1e-12);
    }
}
