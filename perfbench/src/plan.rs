//! Workloads and the op lists generated from the seed.
//!
//! Every client gets its own subtree `/c<k>`. The full op list of a
//! client is built here, before any cluster exists, so the program
//! under test receives only paths.

use loco_kv::SyncPolicy;
use loco_sim::rng::Rng;

/// Closed-loop client threads (one per core of the reference machine).
pub const CLIENTS: usize = 2;
/// Ops in one `namespace_*` cycle.
pub const CYCLE_OPS: usize = 8;
/// `gc_flush` cadence in cycles, as the POSIX layer's `sync()` does.
pub const GC_EVERY_CYCLES: usize = 64;
/// Rounds the timed phase is cut into. Clients meet at a barrier before
/// each round; the end-to-end metrics are medians over rounds, so a
/// burst of machine noise costs one round, not the run. A `gc_flush`
/// may fall inside a round.
pub const ROUNDS: usize = 20;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniformly random `stat_file` over a warm d-inode cache.
    StatWarm,
    /// The 8-step mutation cycle at the os-managed sync policy.
    NamespaceMix,
    /// The same cycle with every mutation fsynced before its ack.
    NamespaceFsync,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::StatWarm,
        Workload::NamespaceMix,
        Workload::NamespaceFsync,
    ];

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StatWarm => "stat_warm",
            Workload::NamespaceMix => "namespace_mix",
            Workload::NamespaceFsync => "namespace_fsync",
        }
    }

    /// WAL sync policy of every role.
    pub fn policy(self) -> SyncPolicy {
        match self {
            Workload::NamespaceFsync => SyncPolicy::EveryRecord,
            _ => SyncPolicy::OsManaged,
        }
    }

    /// Populated directories per client.
    pub fn dirs(self) -> usize {
        match self {
            Workload::StatWarm => 32,
            _ => 64,
        }
    }

    /// Populated files per directory.
    pub fn files(self) -> usize {
        match self {
            Workload::StatWarm => 256,
            _ => 64,
        }
    }

    /// Timed ops (all clients) per second of `--seconds`. A fixed size,
    /// never calibrated at run time: it makes the timed phase last
    /// about `--seconds` on a 2-core x86-64 VM, and a faster program
    /// simply finishes the same work sooner.
    pub fn ops_per_second(self) -> usize {
        match self {
            Workload::StatWarm => 32_000,
            Workload::NamespaceMix => 17_000,
            Workload::NamespaceFsync => 4_000,
        }
    }

    /// Timed ops per client for a run of `seconds`: equal rounds of
    /// whole cycles, and a whole number of `gc_flush` periods, so the
    /// run ends with the GC queue drained.
    pub fn ops_per_client(self, seconds: f64) -> usize {
        let n = (self.ops_per_second() as f64 * seconds / CLIENTS as f64) as usize;
        let unit = match self {
            Workload::StatWarm => ROUNDS,
            _ => CYCLE_OPS * lcm(ROUNDS, GC_EVERY_CYCLES),
        };
        (n / unit).max(1) * unit
    }
}

fn lcm(a: usize, b: usize) -> usize {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    a / gcd(a, b) * b
}

/// One client step.
#[derive(Clone, Debug)]
pub enum Op {
    /// `stat_file`.
    Stat(String),
    /// `mkdir`.
    Mkdir(String),
    /// `create`.
    Create(String),
    /// `rename_file(from, to)`.
    Rename(String, String),
    /// `stat_dir`.
    StatDir(String),
    /// `unlink`.
    Unlink(String),
    /// `rmdir`.
    Rmdir(String),
    /// `gc_flush`: deferred block reclamation. Not an op of its own
    /// (never timed or counted as one), but its wall time is inside the
    /// closed loop.
    GcFlush,
}

impl Op {
    /// Whether the op mutates the namespace.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Mkdir(_) | Op::Create(_) | Op::Rename(..) | Op::Unlink(_) | Op::Rmdir(_)
        )
    }

    /// Mutating RPCs the op costs on this topology (one object store):
    /// the client's protocol, fixed for a given program. `unlink` also
    /// owes the `RemoveObject` its block reclamation sends at the next
    /// `gc_flush`.
    pub fn mutating_rpcs(&self) -> u64 {
        match self {
            Op::Mkdir(_) | Op::Create(_) | Op::Rmdir(_) => 1,
            Op::Rename(..) | Op::Unlink(_) => 2,
            _ => 0,
        }
    }

    /// Short label of the op kind.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Stat(_) => "stat",
            Op::Mkdir(_) => "mkdir",
            Op::Create(_) => "create",
            Op::Rename(..) => "rename",
            Op::StatDir(_) => "stat_dir",
            Op::Unlink(_) => "unlink",
            Op::Rmdir(_) => "rmdir",
            Op::GcFlush => "gc_flush",
        }
    }
}

/// Everything one client does, generated before the cluster boots.
#[derive(Clone, Debug)]
pub struct ClientPlan {
    /// The client's subtree root, `/c<k>`.
    pub root: String,
    /// Populated directories, in creation order.
    pub dirs: Vec<String>,
    /// Populated file names per directory (`f0..`), the same for
    /// every directory.
    pub file_names: Vec<String>,
    /// The untimed warm-up pass: one `stat_file` per directory.
    pub warm: Vec<String>,
    /// The timed steps.
    pub ops: Vec<Op>,
    /// Where each round starts and ends in `ops`.
    pub rounds: Vec<std::ops::Range<usize>>,
    /// Timed ops in `ops` (every step except `GcFlush`).
    pub timed_ops: usize,
    /// `GcFlush` steps in `ops`.
    pub gc_flushes: usize,
}

impl ClientPlan {
    /// Every populated file path, directory-major.
    pub fn files(&self) -> impl Iterator<Item = String> + '_ {
        self.dirs
            .iter()
            .flat_map(move |d| self.file_names.iter().map(move |f| format!("{d}/{f}")))
    }
}

/// Build client `k`'s plan: `ops` timed ops of workload `w` from `seed`.
pub fn plan(w: Workload, k: usize, ops: usize, seed: u64) -> ClientPlan {
    let mut rng = Rng::seed_from_u64(seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let root = format!("/c{k}");
    let dirs: Vec<String> = (0..w.dirs()).map(|d| format!("{root}/d{d}")).collect();
    let file_names: Vec<String> = (0..w.files()).map(|f| format!("f{f}")).collect();
    let warm = dirs.iter().map(|d| format!("{d}/f0")).collect();
    let mut steps = Vec::with_capacity(ops + ops / (CYCLE_OPS * GC_EVERY_CYCLES) + 1);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let per_round = ops / ROUNDS;
    // The seed picks, per op, the file `stat_warm` reads; for the cycle
    // workloads, the order directories are visited in and the populated
    // file each cycle stats.
    let mut order: Vec<usize> = (0..dirs.len()).collect();
    rng.shuffle(&mut order);
    for round in 0..ROUNDS {
        let start = steps.len();
        match w {
            Workload::StatWarm => {
                for _ in 0..per_round {
                    let d = &dirs[rng.gen_range(0..dirs.len())];
                    let f = &file_names[rng.gen_range(0..file_names.len())];
                    steps.push(Op::Stat(format!("{d}/{f}")));
                }
            }
            Workload::NamespaceMix | Workload::NamespaceFsync => {
                let cycles = per_round / CYCLE_OPS;
                for cyc in round * cycles..(round + 1) * cycles {
                    let d = &dirs[order[cyc % dirs.len()]];
                    let f = &file_names[rng.gen_range(0..file_names.len())];
                    let (m, n, r) = (
                        format!("{d}/m{cyc}"),
                        format!("{d}/n{cyc}"),
                        format!("{d}/r{cyc}"),
                    );
                    steps.push(Op::Mkdir(m.clone()));
                    steps.push(Op::Create(n.clone()));
                    steps.push(Op::Stat(n.clone()));
                    steps.push(Op::Rename(n, r.clone()));
                    steps.push(Op::StatDir(m.clone()));
                    steps.push(Op::Unlink(r));
                    steps.push(Op::Rmdir(m));
                    steps.push(Op::Stat(format!("{d}/{f}")));
                    if (cyc + 1) % GC_EVERY_CYCLES == 0 {
                        steps.push(Op::GcFlush);
                    }
                }
            }
        }
        rounds.push(start..steps.len());
    }
    let gc_flushes = steps.iter().filter(|o| matches!(o, Op::GcFlush)).count();
    ClientPlan {
        root,
        dirs,
        file_names,
        warm,
        timed_ops: steps.len() - gc_flushes,
        ops: steps,
        rounds,
        gc_flushes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = plan(Workload::StatWarm, 0, 1000, 7);
        let b = plan(Workload::StatWarm, 0, 1000, 7);
        let c = plan(Workload::StatWarm, 0, 1000, 8);
        let paths = |p: &ClientPlan| format!("{:?}", p.ops);
        assert_eq!(paths(&a), paths(&b));
        assert_ne!(paths(&a), paths(&c));
        assert_eq!(a.timed_ops, 1000);
    }

    #[test]
    fn cycle_plan_returns_the_namespace_to_its_populated_shape() {
        let ops = Workload::NamespaceMix.ops_per_client(1.0);
        let p = plan(Workload::NamespaceMix, 1, ops, 3);
        assert_eq!(p.timed_ops, ops);
        assert_eq!(p.gc_flushes, ops / (CYCLE_OPS * GC_EVERY_CYCLES));
        let creates = p.ops.iter().filter(|o| matches!(o, Op::Create(_))).count();
        let unlinks = p.ops.iter().filter(|o| matches!(o, Op::Unlink(_))).count();
        let mkdirs = p.ops.iter().filter(|o| matches!(o, Op::Mkdir(_))).count();
        let rmdirs = p.ops.iter().filter(|o| matches!(o, Op::Rmdir(_))).count();
        assert_eq!((creates, mkdirs), (unlinks, rmdirs));
        assert_eq!(p.rounds.len(), ROUNDS);
        assert!(
            matches!(p.ops.last(), Some(Op::GcFlush)),
            "the run ends drained"
        );
    }
}
