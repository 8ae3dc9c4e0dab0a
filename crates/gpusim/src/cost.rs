//! Per-warp lockstep cost accounting.
//!
//! A warp executes its lanes in lockstep: the k-th shared-memory-visible
//! access of every lane happens in the same machine step. [`StepTable`]
//! aggregates the accesses of one warp "round" by step ordinal, then
//! [`StepTable::finalize`] prices each step:
//!
//! * loads/stores coalesce into distinct 128-byte segments,
//! * global atomics pay per distinct address plus a cheap aggregation cost
//!   for same-address lanes,
//! * `cuda::atomic` steps are multiplied by the device penalty,
//! * shared-memory atomics serialize by same-address multiplicity.
//!
//! Divergence falls out naturally: a lane that runs more steps than its
//! warp-mates still creates (and prices) those extra steps.

use crate::device::CostModel;

/// Most devices one simulation prices at once: the paper's two GPUs.
pub const MAX_DEVICES: usize = 2;

/// One figure per device of a device set, in set order; an `n`-device set
/// uses `[..n]`.
pub type PerDevice = [f64; MAX_DEVICES];

/// What kind of machine step an ordinal slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessClass {
    /// Plain global load or store (coalescable).
    Mem,
    /// Classic global atomic RMW (`atomicMin` etc.).
    AtomicRmw,
    /// `cuda::atomic` load/store with default settings.
    CudaLdSt,
    /// `cuda::atomic` RMW with default settings.
    CudaAtomicRmw,
    /// Shared-memory (block-scope) atomic.
    SharedAtomic,
}

const MAX_LANES: usize = 32;

/// One lockstep step: the keys its lanes touch, in record order.
///
/// Recording is append-only — no deduplication happens on the access path.
/// A step holds at most one key per lane (32), so [`StepTable::finalize`]
/// deduplicates with branchless fixed-bound scans ([`distinct_keys`],
/// [`max_multiplicity`]) that LLVM vectorizes; doing that work once per
/// step instead of once per access took the dominant term out of the
/// simulator's hot path.
#[derive(Clone)]
#[repr(C)] // class + total + keys[0..6] share the step's first cache line
struct Step {
    class: AccessClass,
    total: usize,
    /// Recorded keys (segment ids for `Mem`/`CudaLdSt`, full addresses for
    /// atomics); `keys[..total]` are live.
    keys: [u64; MAX_LANES],
}

impl Step {
    fn new(class: AccessClass) -> Self {
        Step {
            class,
            total: 0,
            keys: [0; MAX_LANES],
        }
    }

    #[inline]
    fn reset(&mut self, class: AccessClass) {
        self.class = class;
        self.total = 0;
    }

    /// Installs `key` as the step's first access.
    #[inline(always)]
    fn start(&mut self, key: u64) {
        self.keys[0] = key;
        self.total = 1;
    }

    #[inline(always)]
    fn record(&mut self, key: u64) {
        debug_assert!(
            self.total < MAX_LANES,
            "more lanes than WARP_SIZE in one step"
        );
        // the mask elides the bounds check; `total < MAX_LANES` is an
        // invariant (one access per lane per ordinal)
        self.keys[self.total & (MAX_LANES - 1)] = key;
        self.total += 1;
    }
}

/// Number of distinct values in `keys` (at most 32 lanes' worth).
///
/// Warp lanes usually touch monotonically non-decreasing addresses (lane
/// `l` loads `arr[base + l]`), so one O(n) pass checks sortedness — which
/// subsumes the fully-coalesced all-equal warp — and counts run boundaries.
/// Genuinely scattered steps fall back to a branchless O(n²)
/// first-occurrence count over the fixed-size array. All loops are
/// data-independent reductions that auto-vectorize.
#[inline]
fn distinct_keys(keys: &[u64]) -> usize {
    let n = keys.len();
    if n <= 1 {
        return n;
    }
    let mut sorted = true;
    let mut boundaries = 0usize;
    for i in 1..n {
        sorted &= keys[i] >= keys[i - 1];
        boundaries += usize::from(keys[i] != keys[i - 1]);
    }
    if sorted {
        return 1 + boundaries;
    }
    let mut d = 1usize; // keys[0] is always a first occurrence
    for i in 1..n {
        let k = keys[i];
        let mut dup = false;
        for &p in &keys[..i] {
            dup |= p == k;
        }
        d += usize::from(!dup);
    }
    d
}

/// Highest multiplicity of any one key (shared-memory atomics serialize by
/// same-address contention). Branchless O(n²) like [`distinct_keys`].
#[inline]
fn max_multiplicity(keys: &[u64]) -> usize {
    let mut best = 0usize;
    for &k in keys {
        let mut count = 0usize;
        for &p in keys {
            count += usize::from(p == k);
        }
        best = best.max(count);
    }
    best
}

/// Aggregates one warp round and prices it.
///
/// Tables are built for reuse: [`StepTable::clear`] keeps the step storage,
/// so a table that has warmed up to a kernel's deepest round never touches
/// the allocator again. The simulator holds one table per worker thread for
/// the life of the process (see `pool.rs`).
pub struct StepTable {
    steps: Vec<Step>,
    used: usize,
    /// Lifetime count of recorded accesses. Monotonic — survives
    /// [`StepTable::clear`] — so callers can take deltas around a block to
    /// attribute access counts without any per-record bookkeeping of their
    /// own.
    recorded: u64,
}

impl Default for StepTable {
    fn default() -> Self {
        Self::new()
    }
}

impl StepTable {
    /// Empty table.
    pub fn new() -> Self {
        StepTable {
            steps: Vec::new(),
            used: 0,
            recorded: 0,
        }
    }

    /// Clears for the next warp round (keeps capacity).
    pub fn clear(&mut self) {
        self.used = 0;
    }

    /// Lifetime number of accesses recorded into this table (never reset).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records one access: lane-local step `ordinal`, class, and address
    /// (byte address; segmentation for coalescable classes happens here).
    ///
    /// If lanes disagree on the class at an ordinal (divergent code paths),
    /// the step is split implicitly: the later class opens a fresh step at
    /// the end. This is rare in the structured kernels and errs on the
    /// expensive side, like real divergence.
    #[inline(always)]
    pub fn record(&mut self, ordinal: usize, class: AccessClass, addr: u64) {
        self.recorded += 1;
        let key = match class {
            AccessClass::Mem | AccessClass::CudaLdSt => addr >> 7, // 128 B segment
            _ => addr,
        };
        if ordinal < self.used {
            // Safety: `used <= steps.len()` is a structural invariant.
            let step = unsafe { self.steps.get_unchecked_mut(ordinal) };
            if step.class == class {
                step.record(key);
                return;
            }
            // class mismatch: append a divergence step at the end
            self.open(self.used, class, key);
            return;
        }
        self.open(ordinal, class, key);
    }

    /// Opens step `ordinal` (resetting any gap steps before it — they stay
    /// empty and price at zero) and records its first key. Lanes record
    /// consecutive ordinals, so in practice `ordinal == used` and exactly
    /// one step is touched; the general form is kept for direct callers.
    #[inline]
    fn open(&mut self, ordinal: usize, class: AccessClass, key: u64) {
        if self.steps.len() <= ordinal {
            self.steps.resize(ordinal + 1, Step::new(class));
        }
        for i in self.used..ordinal {
            self.steps[i].reset(class);
        }
        let step = &mut self.steps[ordinal];
        step.class = class;
        step.start(key);
        self.used = ordinal + 1;
    }

    /// Number of lockstep steps recorded this round.
    pub fn steps_used(&self) -> usize {
        self.used
    }

    /// Prices the round once for every cost model in `costs` and returns
    /// warp cycles per model (`[..costs.len()]` live). Deduplication of
    /// each step's keys happens here, once per step and shared by all
    /// models, instead of on the per-access record path (see [`Step`]);
    /// each model then accumulates its step costs in step order, so its
    /// total is bit-identical to pricing it alone.
    pub fn finalize(&self, costs: &[CostModel]) -> PerDevice {
        debug_assert!((1..=MAX_DEVICES).contains(&costs.len()));
        let mut cycles = [0.0; MAX_DEVICES];
        // Local tallies, flushed once at the end. Without `telemetry` the
        // flush compiles out, the tallies become dead stores, and the whole
        // accounting is eliminated — the priced cycles are bit-identical
        // either way.
        let (mut coalesced, mut uncoalesced) = (0u64, 0u64);
        let (mut atomic_ops, mut atomic_conflicts, mut shared_atomics) = (0u64, 0u64, 0u64);
        for step in &self.steps[..self.used] {
            let total = step.total;
            if total == 0 {
                continue;
            }
            // distinct keys, or the top multiplicity for shared atomics;
            // divergence leaves many single-lane steps, which skip the scan
            // loops (both are 1 there)
            let n = if total == 1 {
                1
            } else {
                let keys = &step.keys[..total.min(MAX_LANES)];
                match step.class {
                    AccessClass::SharedAtomic => max_multiplicity(keys),
                    _ => distinct_keys(keys),
                }
            };
            match step.class {
                AccessClass::Mem | AccessClass::CudaLdSt => {
                    if n == 1 {
                        coalesced += 1;
                    } else {
                        uncoalesced += n as u64;
                    }
                }
                AccessClass::AtomicRmw | AccessClass::CudaAtomicRmw => {
                    atomic_ops += total as u64;
                    atomic_conflicts += (total - n) as u64;
                }
                AccessClass::SharedAtomic => {
                    shared_atomics += total as u64;
                    atomic_conflicts += (n - 1) as u64;
                }
            }
            for (acc, c) in cycles.iter_mut().zip(costs) {
                *acc += step_cycles(c, step.class, n, total);
            }
        }
        if indigo_obs::enabled() {
            use indigo_obs::Counter;
            // recorded once per priced device, as separate runs would
            let devices = costs.len() as u64;
            Counter::SimCoalescedTxns.add(coalesced * devices);
            Counter::SimUncoalescedTxns.add(uncoalesced * devices);
            Counter::SimAtomicOps.add(atomic_ops * devices);
            Counter::SimAtomicConflicts.add(atomic_conflicts * devices);
            Counter::SimSharedAtomics.add(shared_atomics * devices);
        }
        cycles
    }
}

/// Cycles of one lockstep step of `total` lanes under cost model `c`. `n`
/// is the step's distinct-key count, or its top key multiplicity for
/// shared-memory atomics. A single-lane step (`n = total = 1`) prices
/// exactly as its closed form (`issue + mem_segment`, …): multiplying by
/// 1.0 and adding 0.0 are exact.
#[inline(always)]
fn step_cycles(c: &CostModel, class: AccessClass, n: usize, total: usize) -> f64 {
    let n_f = n as f64;
    match class {
        AccessClass::Mem => c.issue + n_f * c.mem_segment,
        AccessClass::CudaLdSt => (c.issue + n_f * c.mem_segment) * c.cuda_ldst_mult,
        AccessClass::AtomicRmw => {
            c.atomic_issue + n_f * c.atomic_per_addr + (total - n) as f64 * c.atomic_aggregate
        }
        AccessClass::CudaAtomicRmw => {
            (c.atomic_issue + n_f * c.atomic_per_addr + (total - n) as f64 * c.atomic_aggregate)
                * c.cuda_atomic_mult
        }
        AccessClass::SharedAtomic => c.issue + n_f * c.shared_serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::titan_v;

    fn costs() -> CostModel {
        titan_v().cost
    }

    #[test]
    fn coalesced_load_is_one_segment() {
        let mut t = StepTable::new();
        for lane in 0..32u64 {
            t.record(0, AccessClass::Mem, lane * 4); // consecutive u32s
        }
        let c = costs();
        assert_eq!(t.finalize(&[c])[0], c.issue + c.mem_segment);
    }

    #[test]
    fn scattered_load_pays_per_segment() {
        let mut t = StepTable::new();
        for lane in 0..32u64 {
            t.record(0, AccessClass::Mem, lane * 4096); // all different segments
        }
        let c = costs();
        assert_eq!(t.finalize(&[c])[0], c.issue + 32.0 * c.mem_segment);
    }

    #[test]
    fn same_address_atomics_aggregate() {
        let c = costs();
        let mut same = StepTable::new();
        let mut scattered = StepTable::new();
        for lane in 0..32u64 {
            same.record(0, AccessClass::AtomicRmw, 0);
            scattered.record(0, AccessClass::AtomicRmw, lane * 4096);
        }
        assert!(same.finalize(&[c])[0] < scattered.finalize(&[c])[0]);
        assert_eq!(
            same.finalize(&[c])[0],
            c.atomic_issue + c.atomic_per_addr + 31.0 * c.atomic_aggregate
        );
    }

    #[test]
    fn cuda_atomic_multiplier_applies() {
        let c = costs();
        let mut classic = StepTable::new();
        let mut cuda = StepTable::new();
        classic.record(0, AccessClass::AtomicRmw, 128);
        cuda.record(0, AccessClass::CudaAtomicRmw, 128);
        let ratio = cuda.finalize(&[c])[0] / classic.finalize(&[c])[0];
        assert!((ratio - c.cuda_atomic_mult).abs() < 1e-9);
    }

    #[test]
    fn shared_atomic_serializes_by_multiplicity() {
        let c = costs();
        let mut same = StepTable::new();
        let mut spread = StepTable::new();
        for lane in 0..32u64 {
            same.record(0, AccessClass::SharedAtomic, 0);
            spread.record(0, AccessClass::SharedAtomic, lane * 8);
        }
        assert_eq!(same.finalize(&[c])[0], c.issue + 32.0 * c.shared_serial);
        assert_eq!(spread.finalize(&[c])[0], c.issue + c.shared_serial);
    }

    #[test]
    fn divergent_lane_extends_the_round() {
        let c = costs();
        let mut t = StepTable::new();
        // lane 0 performs 10 steps, the others 1
        for step in 0..10u64 {
            t.record(step as usize, AccessClass::Mem, step * 4096);
        }
        for lane in 1..32u64 {
            t.record(0, AccessClass::Mem, lane * 4);
        }
        assert_eq!(t.steps_used(), 10);
        assert!(t.finalize(&[c])[0] >= 10.0 * c.issue);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut t = StepTable::new();
        t.record(0, AccessClass::Mem, 0);
        t.clear();
        assert_eq!(t.steps_used(), 0);
        assert_eq!(t.finalize(&[costs()])[0], 0.0);
    }

    #[test]
    fn recorded_counter_is_monotonic_across_clear() {
        let mut t = StepTable::new();
        for lane in 0..32u64 {
            t.record(0, AccessClass::Mem, lane * 4);
        }
        assert_eq!(t.recorded(), 32);
        t.clear();
        t.record(0, AccessClass::AtomicRmw, 0);
        assert_eq!(t.recorded(), 33);
    }

    /// Pricing a round for two models at once gives each model exactly the
    /// bits it gets alone, for every access class and for divergent,
    /// single-lane and scattered steps alike.
    #[test]
    fn two_models_price_like_two_single_passes() {
        let tv = titan_v().cost;
        let rtx = crate::device::rtx3090().cost;
        let mut t = StepTable::new();
        let classes = [
            AccessClass::Mem,
            AccessClass::CudaLdSt,
            AccessClass::AtomicRmw,
            AccessClass::CudaAtomicRmw,
            AccessClass::SharedAtomic,
        ];
        for lane in 0..32u64 {
            for (ord, &class) in classes.iter().enumerate() {
                t.record(ord, class, (lane * 37 + ord as u64) % 9 * 4096);
            }
            // a divergent lane runs one extra single-lane step
            if lane == 5 {
                t.record(classes.len(), AccessClass::AtomicRmw, 8);
            }
        }
        let both = t.finalize(&[tv, rtx]);
        assert_eq!(both[0].to_bits(), t.finalize(&[tv])[0].to_bits());
        assert_eq!(both[1].to_bits(), t.finalize(&[rtx])[0].to_bits());
        assert_ne!(both[0], both[1]);
    }

    #[test]
    fn class_mismatch_splits_step() {
        let mut t = StepTable::new();
        t.record(0, AccessClass::Mem, 0);
        t.record(0, AccessClass::AtomicRmw, 64); // different class, same ordinal
        assert_eq!(t.steps_used(), 2);
    }
}
