//! Active-set stepping on the issue side: which clusters an issue phase
//! visits, and the running values that replace per-tick scans over every
//! cluster.
//!
//! A cluster has work in an issue phase when it holds a deferred access,
//! or when its compute gap has run out and it has stream left and is not
//! parked. Any other cluster's [`Cluster::issue`] call would return `None`
//! having changed only state the cluster keeps to itself: its gap
//! countdown, or, when it is [parked](Cluster::parked) on a full MSHR
//! file, its L1 clock and miss counts. The schedule makes no such call.
//! It counts issue phases engine-wide (a clock jump adds the phases it
//! skipped) and replays each cluster's missed calls from that count, with
//! [`Cluster::replay_idle`], when the cluster is next visited, when a
//! response unparks it, or when the engine [settles](ClusterSchedule::settle_all)
//! every cluster before anything reads their counters: an observability
//! snapshot, the end of a run.
//!
//! The CTA wave-lead bound excludes clusters more than one wave ahead of
//! the slowest unfinished one; an excluded cluster is *frozen* and its
//! counters stand still, as the stepped loop never calls it. A cluster's
//! progress moves only when it issues and the bound only rises while any
//! cluster is unfinished, so a cluster freezes only in the phase after it
//! issued, and thaws when the bound reaches its progress. The bound comes
//! from a running minimum, not a scan.
//!
//! Everything here is derived state, rebuilt from the clusters at each
//! kernel launch.

use crate::chip::Chip;
use crate::cluster::Cluster;
use mcgpu_types::ActiveSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum instructions a cluster may run ahead of the slowest cluster
/// (one CTA wave of the distributed CTA scheduler).
const CTA_WAVE_LEAD: usize = 384;

/// The issue phase's cluster schedule. Clusters are numbered
/// `chip * clusters_per_chip + cluster`.
#[derive(Debug)]
pub(super) struct ClusterSchedule {
    per_chip: usize,
    /// Issue phases run so far, the ones a clock jump skipped included.
    phases: u64,
    /// Per cluster: the phase through which its idle calls are replayed.
    settled: Vec<u64>,
    /// Per cluster: the phase of its next visit (`u64::MAX`: none due).
    due: Vec<u64>,
    /// Per cluster: excluded by the wave-lead bound.
    frozen: Vec<bool>,
    /// Per cluster: [`Cluster::progress`] and [`Cluster::done`].
    progress: Vec<usize>,
    done: Vec<bool>,
    /// Per chip: the clusters due at the next phase.
    ready: Vec<ActiveSet>,
    /// `(due phase, cluster)` of clusters counting down a compute gap.
    /// An entry whose phase no longer matches `due` is stale.
    timers: BinaryHeap<Reverse<(u64, usize)>>,
    /// `(progress, cluster)` of frozen clusters, lowest first.
    thaw: BinaryHeap<Reverse<(usize, usize)>>,
    /// Clusters whose progress moved since the last refresh.
    moved: Vec<usize>,
    /// Unfinished clusters, their lowest progress, and how many sit at it.
    unfinished: usize,
    min_progress: usize,
    at_min: usize,
    /// The wave-lead bound at the last refresh.
    lead: usize,
    /// Reads completed, summed over every cluster.
    reads: u64,
    /// Clusters frozen and visits that parked so far, for the
    /// differential tests' vacuity guards.
    #[cfg(test)]
    pub(super) freezes: u64,
    #[cfg(test)]
    pub(super) parks: u64,
}

impl ClusterSchedule {
    /// The schedule of `chips` freshly built chips.
    pub(super) fn new(chips: &[Chip]) -> Self {
        let per_chip = chips.first().map_or(0, |c| c.clusters.len());
        let n = chips.len() * per_chip;
        let mut sched = ClusterSchedule {
            per_chip,
            phases: 0,
            settled: vec![0; n],
            due: vec![u64::MAX; n],
            frozen: vec![false; n],
            progress: vec![0; n],
            done: vec![true; n],
            ready: (0..chips.len())
                .map(|_| ActiveSet::empty(per_chip))
                .collect(),
            timers: BinaryHeap::new(),
            thaw: BinaryHeap::new(),
            moved: Vec::new(),
            unfinished: 0,
            min_progress: 0,
            at_min: 0,
            lead: 0,
            reads: 0,
            #[cfg(test)]
            freezes: 0,
            #[cfg(test)]
            parks: 0,
        };
        sched.rebuild(chips);
        sched
    }

    fn cluster<'a>(&self, chips: &'a [Chip], f: usize) -> &'a Cluster {
        &chips[f / self.per_chip].clusters[f % self.per_chip]
    }

    /// The progress bound of the wave-lead filter: clusters at or below
    /// it take part in the next issue phase.
    pub(super) fn lead_cap(&self) -> usize {
        let slowest = if self.unfinished > 0 {
            self.min_progress
        } else {
            0
        };
        slowest + CTA_WAVE_LEAD
    }

    /// Clusters that have not finished their kernel stream.
    pub(super) fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Reads completed, summed over every cluster (L1 hits and MSHR
    /// merges included).
    pub(super) fn reads(&self) -> u64 {
        self.reads
    }

    /// Derive the whole schedule from the clusters, all counters settled:
    /// at construction and at each kernel launch.
    pub(super) fn rebuild(&mut self, chips: &[Chip]) {
        self.ready.iter_mut().for_each(ActiveSet::clear);
        self.timers.clear();
        self.thaw.clear();
        self.moved.clear();
        self.reads = 0;
        for f in 0..self.settled.len() {
            let cl = self.cluster(chips, f);
            let (progress, done, reads) = (cl.progress(), cl.done(), cl.reads_done());
            self.progress[f] = progress;
            self.done[f] = done;
            self.settled[f] = self.phases;
            self.due[f] = u64::MAX;
            self.frozen[f] = false;
            self.reads += reads;
        }
        self.recount();
        self.lead = self.lead_cap();
        for f in 0..self.settled.len() {
            if self.progress[f] > self.lead {
                self.frozen[f] = true;
                self.thaw.push(Reverse((self.progress[f], f)));
            } else {
                self.reschedule(f, self.cluster(chips, f));
            }
        }
    }

    /// Recount the unfinished clusters and their minimum progress.
    fn recount(&mut self) {
        self.unfinished = 0;
        self.min_progress = usize::MAX;
        self.at_min = 0;
        for (&progress, _) in self.progress.iter().zip(&self.done).filter(|(_, &d)| !d) {
            self.unfinished += 1;
            if progress < self.min_progress {
                self.min_progress = progress;
                self.at_min = 0;
            }
            if progress == self.min_progress {
                self.at_min += 1;
            }
        }
    }

    /// Replay cluster `f`'s idle issue calls through phase `through`
    /// (a frozen cluster has none).
    fn settle(&mut self, f: usize, through: u64, cluster: &mut Cluster) {
        if self.frozen[f] {
            return;
        }
        let k = through - self.settled[f];
        if k > 0 {
            cluster.replay_idle(k);
            self.settled[f] = through;
        }
    }

    /// Replay every cluster's idle calls through the last phase, so that
    /// every counter reads as if each call had been made.
    pub(super) fn settle_all(&mut self, chips: &mut [Chip]) {
        for f in 0..self.settled.len() {
            let through = self.phases;
            let cluster = &mut chips[f / self.per_chip].clusters[f % self.per_chip];
            self.settle(f, through, cluster);
        }
    }

    /// Schedule the next visit of unfrozen cluster `f`, whose counters are
    /// settled through the last phase.
    fn reschedule(&mut self, f: usize, cluster: &Cluster) {
        let next = self.phases + 1;
        let due = if cluster.has_deferred() {
            next
        } else if !cluster.parked() && cluster.progress() < cluster.stream_len() {
            next + u64::from(cluster.gap_remaining())
        } else {
            u64::MAX
        };
        let (c, i) = (f / self.per_chip, f % self.per_chip);
        if due == next {
            self.ready[c].insert(i);
        } else {
            self.ready[c].remove(i);
            if due != u64::MAX && due != self.due[f] {
                self.timers.push(Reverse((due, f)));
            }
        }
        self.due[f] = due;
    }

    /// Record cluster `f`'s progress and completion after it changed.
    fn track(&mut self, f: usize, progress: usize, done: bool) {
        let (old, was_done) = (self.progress[f], self.done[f]);
        if old == progress && was_done == done {
            return;
        }
        if old != progress {
            self.moved.push(f);
        }
        if !was_done {
            self.unfinished -= 1;
            if old == self.min_progress {
                self.at_min -= 1;
            }
        }
        if !done {
            if self.unfinished == 0 || progress < self.min_progress {
                self.min_progress = progress;
                self.at_min = 0;
            }
            if progress == self.min_progress {
                self.at_min += 1;
            }
            self.unfinished += 1;
        }
        self.progress[f] = progress;
        self.done[f] = done;
        if self.at_min == 0 && self.unfinished > 0 {
            self.recount();
        }
    }

    fn freeze(&mut self, f: usize, chips: &mut [Chip]) {
        let through = self.phases;
        let cluster = &mut chips[f / self.per_chip].clusters[f % self.per_chip];
        self.settle(f, through, cluster);
        self.frozen[f] = true;
        self.due[f] = u64::MAX;
        self.ready[f / self.per_chip].remove(f % self.per_chip);
        self.thaw.push(Reverse((self.progress[f], f)));
        #[cfg(test)]
        {
            self.freezes += 1;
        }
    }

    fn unfreeze(&mut self, f: usize, chips: &[Chip]) {
        self.frozen[f] = false;
        self.settled[f] = self.phases;
        self.reschedule(f, self.cluster(chips, f));
    }

    /// Bring the schedule up to the next phase: apply what moved the
    /// wave-lead bound since the last refresh (freezing and thawing
    /// clusters) and mark the clusters whose gap runs out. `visit_all`
    /// makes every unfrozen cluster due, which turns the issue phase into
    /// a call on every eligible cluster: the differential tests' reference.
    pub(super) fn refresh(&mut self, chips: &mut [Chip], visit_all: bool) {
        let lead = self.lead_cap();
        if lead < self.lead {
            // Every cluster has finished: the bound fell back to one wave.
            for f in 0..self.settled.len() {
                if !self.frozen[f] && self.progress[f] > lead {
                    self.freeze(f, chips);
                }
            }
        } else {
            while let Some(&Reverse((progress, f))) = self.thaw.peek() {
                if progress > lead {
                    break;
                }
                self.thaw.pop();
                if self.frozen[f] {
                    self.unfreeze(f, chips);
                }
            }
            for i in 0..self.moved.len() {
                let f = self.moved[i];
                if !self.frozen[f] && self.progress[f] > lead {
                    self.freeze(f, chips);
                }
            }
        }
        self.moved.clear();
        self.lead = lead;
        let next = self.phases + 1;
        while let Some(&Reverse((due, f))) = self.timers.peek() {
            let live = self.due[f] == due;
            if live && due > next {
                break;
            }
            self.timers.pop();
            if live {
                self.ready[f / self.per_chip].insert(f % self.per_chip);
            }
        }
        if visit_all {
            for f in 0..self.settled.len() {
                if !self.frozen[f] {
                    self.ready[f / self.per_chip].insert(f % self.per_chip);
                }
            }
        }
    }

    /// Start the next issue phase.
    pub(super) fn begin_phase(&mut self) {
        self.phases += 1;
    }

    /// Account for `k` issue phases a clock jump skips.
    pub(super) fn skip_phases(&mut self, k: u64) {
        self.phases += k;
    }

    /// The lowest cluster of chip `c` at or after `from` due this phase.
    pub(super) fn next_ready(&self, c: usize, from: usize) -> Option<usize> {
        self.ready[c].next_from(from)
    }

    /// Before cluster `f` is visited in the current phase: replay its idle
    /// calls of earlier phases. Returns its completed reads, for
    /// [`after_visit`](ClusterSchedule::after_visit).
    pub(super) fn before_visit(&mut self, f: usize, cluster: &mut Cluster) -> u64 {
        self.settle(f, self.phases - 1, cluster);
        cluster.reads_done()
    }

    /// After cluster `f`'s visit, which began with `reads_before`
    /// completed reads: record what it did and schedule the next one.
    pub(super) fn after_visit(&mut self, f: usize, cluster: &Cluster, reads_before: u64) {
        self.settled[f] = self.phases;
        #[cfg(test)]
        {
            self.parks += u64::from(cluster.parked());
        }
        self.reads += cluster.reads_done() - reads_before;
        self.track(f, cluster.progress(), cluster.done());
        self.reschedule(f, cluster);
    }

    /// Before a read response reaches cluster `f`: a parked cluster's
    /// retries up to now happened before the fill. Returns whether it was
    /// parked.
    pub(super) fn before_response(&mut self, f: usize, cluster: &mut Cluster) -> bool {
        let parked = cluster.parked();
        if parked {
            self.settle(f, self.phases, cluster);
        }
        parked
    }

    /// After a read response completed `merged` accesses at cluster `f`.
    pub(super) fn after_response(
        &mut self,
        f: usize,
        cluster: &Cluster,
        merged: u32,
        was_parked: bool,
    ) {
        self.reads += u64::from(merged);
        self.track(f, cluster.progress(), cluster.done());
        if was_parked && !self.frozen[f] {
            self.reschedule(f, cluster);
        }
    }

    /// The cycle of the next issue phase that visits a cluster, given the
    /// current cycle `now` and a [`refresh`](ClusterSchedule::refresh)ed
    /// schedule: `now + 1` while a cluster is due, else the earliest gap
    /// expiry (`u64::MAX` when no cluster will issue before a datapath
    /// event).
    pub(super) fn next_issue_event(&self, now: u64) -> u64 {
        if self.ready.iter().any(|r| !r.is_empty()) {
            return now + 1;
        }
        self.timers
            .peek()
            .map_or(u64::MAX, |&Reverse((due, _))| now + (due - self.phases))
    }

    /// The differential reference's cross-check: every running value
    /// equals the scan it replaces.
    pub(super) fn assert_running_values(&self, chips: &[Chip]) {
        let clusters = || chips.iter().flat_map(|c| c.clusters.iter());
        let unfinished = clusters().filter(|cl| !cl.done()).count();
        let slowest = clusters()
            .filter(|cl| !cl.done())
            .map(Cluster::progress)
            .min()
            .unwrap_or(0);
        let reads: u64 = clusters().map(Cluster::reads_done).sum();
        assert_eq!(
            (self.unfinished, self.lead_cap(), self.reads),
            (unfinished, slowest + CTA_WAVE_LEAD, reads),
            "running (unfinished, lead cap, reads) drifted from a scan"
        );
    }
}
