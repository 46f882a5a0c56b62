//! Seeded request lists for the three workloads.
//!
//! Every list is a pure function of the workload name and `--seed`; the
//! server only ever sees the generated lines. Each workload is split into
//! two per-connection lists, and every plan id is owned by exactly one
//! connection, so the two client threads never touch each other's plans.

use std::fmt::Write as _;

/// The paper's running example (Table 1), which is also the server's
/// default menu: `(cardinality, confidence, cost)`.
pub const PAPER_MENU: [(u32, f64, f64); 3] = [(1, 0.90, 0.10), (2, 0.85, 0.18), (3, 0.80, 0.24)];

/// Seed the server's protocol gives `baseline` requests that carry none; the
/// fixture is solved with it so wire resubmits match wire cold solves.
pub const DEFAULT_BASELINE_SEED: u64 = 0xC0FFEE;

/// SplitMix64: small, fast and fixed, so lists never change under us.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to `decimals` places so the value
    /// prints and parses back exactly.
    pub fn uniform(&mut self, lo: f64, hi: f64, decimals: i32) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 10f64.powi(decimals);
        ((lo + u * (hi - lo)) * scale).round() / scale
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A workload's per-task thresholds.
#[derive(Clone, Debug, PartialEq)]
pub enum Tasks {
    Homogeneous { n: u32, threshold: f64 },
    Heterogeneous(Vec<f64>),
}

impl Tasks {
    pub fn len(&self) -> usize {
        match self {
            Tasks::Homogeneous { n, .. } => *n as usize,
            Tasks::Heterogeneous(t) => t.len(),
        }
    }

    pub fn threshold(&self, task: usize) -> f64 {
        match self {
            Tasks::Homogeneous { threshold, .. } => *threshold,
            Tasks::Heterogeneous(t) => t[task],
        }
    }

    /// The request members that describe these tasks.
    fn members(&self) -> String {
        match self {
            Tasks::Homogeneous { n, threshold } => {
                format!(r#""tasks":{n},"threshold":{threshold}"#)
            }
            Tasks::Heterogeneous(t) => format!(r#""thresholds":{}"#, number_list(t)),
        }
    }
}

/// One instance as the checker sees it: what was asked, on which menu.
#[derive(Clone, Debug)]
pub struct Instance {
    pub algorithm: &'static str,
    pub tasks: Tasks,
    /// `None` means the server's default (the paper's) menu.
    pub menu: Option<Vec<(u32, f64, f64)>>,
}

impl Instance {
    pub fn menu(&self) -> Vec<(u32, f64, f64)> {
        self.menu.clone().unwrap_or_else(|| PAPER_MENU.to_vec())
    }

    /// The engine fields of a `solve` for this instance.
    pub fn solve_members(&self) -> String {
        let mut s = format!(
            r#""algorithm":"{}",{}"#,
            self.algorithm,
            self.tasks.members()
        );
        if let Some(menu) = &self.menu {
            s.push_str(r#","bins":["#);
            for (i, (l, r, c)) in menu.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{l},{r},{c}]");
            }
            s.push(']');
        }
        s
    }
}

/// A workload delta, as sent in a `resubmit`.
#[derive(Clone, Debug)]
pub enum Delta {
    Resize(u32),
    SetThresholds(Vec<(u32, f64)>),
    Append(Vec<f64>),
}

impl Delta {
    fn json(&self) -> String {
        match self {
            Delta::Resize(n) => format!(r#"{{"resize":{n}}}"#),
            Delta::SetThresholds(pairs) => {
                let items: Vec<String> = pairs.iter().map(|(i, t)| format!("[{i},{t}]")).collect();
                format!(r#"{{"set_thresholds":[{}]}}"#, items.join(","))
            }
            Delta::Append(t) => format!(r#"{{"append":{}}}"#, number_list(t)),
        }
    }

    pub fn apply(&self, tasks: &Tasks) -> Tasks {
        match (self, tasks) {
            (Delta::Resize(n), Tasks::Homogeneous { threshold, .. }) => Tasks::Homogeneous {
                n: *n,
                threshold: *threshold,
            },
            (Delta::Resize(n), Tasks::Heterogeneous(t)) => {
                Tasks::Heterogeneous(t[..*n as usize].to_vec())
            }
            (Delta::SetThresholds(pairs), _) => {
                let mut t: Vec<f64> = (0..tasks.len()).map(|i| tasks.threshold(i)).collect();
                for &(i, v) in pairs {
                    t[i as usize] = v;
                }
                Tasks::Heterogeneous(t)
            }
            (Delta::Append(extra), _) => {
                let mut t: Vec<f64> = (0..tasks.len()).map(|i| tasks.threshold(i)).collect();
                t.extend_from_slice(extra);
                Tasks::Heterogeneous(t)
            }
        }
    }
}

/// What a request does.
#[derive(Clone, Debug)]
pub enum Op {
    Solve,
    Resubmit(Delta),
}

/// One request of a list, plus what the checker needs to judge its answer.
#[derive(Clone, Debug)]
pub struct Req {
    pub op: Op,
    /// The plan id this request produces or revises.
    pub id: Option<String>,
    /// The instance the response must solve (after the delta, for a
    /// resubmit).
    pub instance: Instance,
    pub want_plan: bool,
}

impl Req {
    fn solve(instance: Instance, id: Option<String>, want_plan: bool) -> Req {
        Req {
            op: Op::Solve,
            id,
            instance,
            want_plan,
        }
    }

    /// The request line. `seq` pipelines it; `trace` opts into tracing.
    pub fn line(&self, seq: Option<usize>, trace: bool) -> String {
        let mut s = String::from("{");
        match &self.op {
            Op::Solve => {
                s.push_str(r#""op":"solve","#);
                if let Some(id) = &self.id {
                    let _ = write!(s, r#""id":"{id}","#);
                }
                s.push_str(&self.instance.solve_members());
            }
            Op::Resubmit(delta) => {
                let id = self.id.as_deref().expect("a resubmit names its plan id");
                let _ = write!(s, r#""op":"resubmit","id":"{id}","delta":{}"#, delta.json());
            }
        }
        if self.want_plan {
            s.push_str(r#","plan":true"#);
        }
        if let Some(seq) = seq {
            let _ = write!(s, r#","seq":{seq}"#);
        }
        if trace {
            s.push_str(r#","trace":true"#);
        }
        s.push('}');
        s
    }
}

/// A plan the resubmit-journal fixture lands before the server boots.
pub struct FixturePlan {
    pub id: String,
    pub instance: Instance,
}

/// Everything one workload needs.
pub struct Workload {
    /// Per connection: the untimed preparation, sent once per set-up.
    pub warmup: [Vec<Req>; 2],
    /// Per connection: one round, repeated whole while timing.
    pub round: [Vec<Req>; 2],
    /// `seq`-tagged requests each connection keeps in flight.
    pub window: usize,
    /// Plans journaled before boot (resubmit-journal only).
    pub fixture: Vec<FixturePlan>,
}

pub const WORKLOADS: [&str; 3] = ["warm-hot", "cold-unique", "resubmit-journal"];

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "warm-hot" => Some(warm_hot(seed)),
        "cold-unique" => Some(cold_unique(seed)),
        "resubmit-journal" => Some(resubmit_journal(seed)),
        _ => None,
    }
}

/// Artifact-cache capacity given to the server (and the in-process engine):
/// four times the warm-hot pool, so no shard of the sharded cache evicts a
/// warm entry; cold-unique cycles through far more keys than this.
pub const CACHE_CAPACITY: usize = 256;

/// Times the warm-hot pool appears in one connection's round.
const WARM_REPEATS: usize = 16;

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

fn number_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn paper(algorithm: &'static str, tasks: Tasks) -> Instance {
    Instance {
        algorithm,
        tasks,
        menu: None,
    }
}

/// warm-hot: a pool of 64 distinct requests whose artifacts all fit the
/// cache, repeated; plus revision pairs on plans each connection owns. The
/// seed moves thresholds within narrow bands and orders the requests; the
/// make-up of the pool, and of the sample that returns full plans, is the
/// same for every seed.
///
/// A homogeneous plan's cost steps where the threshold crosses the
/// confidence of a combination of the paper's bins. No such step lies
/// inside a band, but three bands start on one: 0.80 (one 3-task bin), 0.96
/// (two) and 0.98 (a 1-task and a 3-task bin). So each band leaves out its
/// start; a seed that drew it moved the round's plan cost by 1%.
fn warm_hot(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 1);
    let thresholds: Vec<f64> = [0.80, 0.83, 0.86, 0.89, 0.92, 0.94, 0.96, 0.98]
        .iter()
        .map(|band| round4(band + rng.uniform(0.0001, 0.001, 4)))
        .collect();
    // Bucket values for the heterogeneous requests: thresholds drawn from
    // these few values hash to a handful of shared shard fingerprints.
    let buckets = [0.8, 0.9, 0.95, 0.99];

    let mut pool: Vec<Instance> = Vec::with_capacity(64);
    for &t in &thresholds {
        for n in [10, 100, 500, 2000, 5000] {
            pool.push(paper("opq-based", Tasks::Homogeneous { n, threshold: t }));
        }
    }
    for (k, &t) in thresholds.iter().enumerate() {
        let n = [100, 500, 1000][k % 3];
        pool.push(paper("greedy", Tasks::Homogeneous { n, threshold: t }));
    }
    for k in 0..10 {
        let t: Vec<f64> = (0..50 + 15 * k).map(|_| rng.pick(&buckets)).collect();
        pool.push(paper("opq-extended", Tasks::Heterogeneous(t)));
    }
    for (k, &t) in thresholds[..6].iter().enumerate() {
        let n = [50, 100, 200, 500, 100, 200][k];
        pool.push(paper("baseline", Tasks::Homogeneous { n, threshold: t }));
    }
    debug_assert_eq!(pool.len(), 64);

    let mut warmup: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    let mut round: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    for conn in 0..2 {
        // Blocks of one of each pool entry, shuffled within the block, so
        // every seed spreads the heavy requests alike. Each entry returns
        // its full plan in one of its blocks, four entries a block.
        let mut list: Vec<Req> = Vec::new();
        for repeat in 0..WARM_REPEATS {
            let mut block: Vec<Req> = pool
                .iter()
                .enumerate()
                .map(|(j, inst)| Req::solve(inst.clone(), None, j % WARM_REPEATS == repeat))
                .collect();
            rng.shuffle(&mut block);
            list.extend(block);
        }
        // Revision pairs on owned plans: resize away, and back half a
        // round later, at thresholds whose artifacts are warm.
        let mut pairs = Vec::new();
        for (k, away) in [10, 500, 2000, 500].into_iter().enumerate() {
            let id = format!("h{conn}-{k}");
            let threshold = thresholds[2 * k + conn];
            let home = paper("opq-based", Tasks::Homogeneous { n: 100, threshold });
            warmup[conn].push(Req::solve(home.clone(), Some(id.clone()), false));
            pairs.push((id, home, away));
        }
        warmup[conn].extend(
            pool.iter()
                .map(|inst| Req::solve(inst.clone(), None, false)),
        );
        let stride = list.len() / 8;
        let mut out = Vec::with_capacity(list.len() + 8);
        for (i, req) in list.into_iter().enumerate() {
            if i % stride == 0 && i / stride < 8 {
                let k = i / stride;
                let (id, home, away) = &pairs[k % 4];
                let n = if k < 4 {
                    *away
                } else {
                    home.tasks.len() as u32
                };
                out.push(resize(id, home, n, k >= 4));
            }
            out.push(req);
        }
        round[conn] = out;
    }
    Workload {
        warmup,
        round,
        window: 4,
        fixture: Vec::new(),
    }
}

fn resize(id: &str, instance: &Instance, n: u32, want_plan: bool) -> Req {
    let delta = Delta::Resize(n);
    let tasks = delta.apply(&instance.tasks);
    Req {
        op: Op::Resubmit(delta),
        id: Some(id.to_string()),
        instance: Instance {
            tasks,
            ..instance.clone()
        },
        want_plan,
    }
}

/// A seeded three-bin menu in the shape of the paper's: confidence falls
/// and cost rises sublinearly with cardinality. `shape` picks the
/// cardinalities, so their mix is fixed by the caller, not by the seed;
/// `r1` is the single-task bin's confidence.
fn seeded_menu(rng: &mut Rng, shape: usize, r1: f64) -> Vec<(u32, f64, f64)> {
    let (l2, l3) = [(2, 3), (2, 4), (3, 4), (3, 5)][shape % 4];
    let r2 = round4(r1 - rng.uniform(0.035, 0.045, 4));
    let r3 = round4(r2 - rng.uniform(0.035, 0.045, 4));
    let c1 = rng.uniform(0.098, 0.102, 4);
    let c2 = round4(c1 * f64::from(l2) * rng.uniform(0.86, 0.88, 4));
    let c3 = round4(c1 * f64::from(l3) * rng.uniform(0.81, 0.83, 4));
    vec![(1, r1, c1), (l2, r2, c2), (l3, r3, c3)]
}

/// The cold-unique instance for `slot`: the slot fixes the algorithm, the
/// size, the menu's shape, and whether the single-task bin alone meets the
/// threshold; the seed draws the threshold (0.90–0.92), the menu and the
/// heterogeneous thresholds.
///
/// A request's plan cost jumps by about 60% when its threshold rises above
/// the single-task bin's confidence, since each task then needs two bins.
/// Left to the seed, the share of requests on each side moved the round's
/// plan cost by about 1% between seeds, so the slot fixes it: one in eight.
fn cold_instance(rng: &mut Rng, slot: usize) -> Instance {
    let threshold = rng.uniform(0.9, 0.92, 4);
    let margin = rng.uniform(0.0001, 0.01, 4);
    let r1 = if (slot / 3).is_multiple_of(8) {
        round4(threshold + margin)
    } else {
        round4(threshold - margin)
    };
    let menu = Some(seeded_menu(rng, slot, r1));
    let (algorithm, tasks) = match slot % 40 {
        0..=31 => (
            "opq-based",
            Tasks::Homogeneous {
                n: [100, 500, 2000][slot % 3],
                threshold,
            },
        ),
        k @ 32..=35 => (
            "baseline",
            Tasks::Homogeneous {
                n: [50, 100, 200, 500][k - 32],
                threshold,
            },
        ),
        36..=38 => (
            "opq-extended",
            Tasks::Heterogeneous((0..200).map(|_| rng.uniform(0.7, 0.97, 4)).collect()),
        ),
        _ => (
            "greedy",
            Tasks::Homogeneous {
                n: [100, 500][(slot / 40) % 2],
                threshold,
            },
        ),
    };
    Instance {
        algorithm,
        tasks,
        menu,
    }
}

/// cold-unique: every request brings its own menu and threshold, and a
/// round cycles through several times more fingerprints than the cache
/// holds, so every solve prepares from scratch.
fn cold_unique(seed: u64) -> Workload {
    const PER_CONN: usize = 500;
    let mut rng = Rng::new(seed, 2);
    let mut warmup: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    let mut round: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    for conn in 0..2 {
        // The warm-up draws its own instances: none of them recurs in the
        // timed rounds.
        for slot in 0..80 {
            let inst = cold_instance(&mut rng, slot);
            warmup[conn].push(Req::solve(inst, None, false));
        }
        let mut slots: Vec<usize> = (0..PER_CONN).collect();
        rng.shuffle(&mut slots);
        // One slot in eight returns its full plan, spread evenly over the
        // algorithms and sizes.
        let mut list: Vec<Req> = slots
            .iter()
            .map(|&slot| {
                Req::solve(
                    cold_instance(&mut rng, slot),
                    None,
                    (slot / 40 + slot) % 8 == 0,
                )
            })
            .collect();
        // Revision pairs half a round apart: by the time a plan is resized
        // back, its artifacts have long been evicted.
        let mut homes = Vec::new();
        for k in 0..8 {
            let id = format!("c{conn}-{k}");
            let mut home = cold_instance(&mut rng, 3 * k);
            home.tasks = Tasks::Homogeneous {
                n: 500,
                threshold: home.tasks.threshold(0),
            };
            warmup[conn].push(Req::solve(home.clone(), Some(id.clone()), false));
            homes.push((id, home));
        }
        let stride = list.len() / 16;
        for (k, (id, home)) in homes.iter().enumerate().rev() {
            list.insert((8 + k) * stride, resize(id, home, 500, true));
            list.insert(k * stride, resize(id, home, 2000, false));
        }
        round[conn] = list;
    }
    Workload {
        warmup,
        round,
        window: 1,
        fixture: Vec::new(),
    }
}

/// Plans in the resubmit-journal fixture; half homogeneous, half 60-task
/// heterogeneous.
pub const FIXTURE_PLANS: usize = 2000;
/// Chains per connection per round: 128 chains of 4 resubmits make 1024
/// landed plans a round, a whole number of journal compaction periods.
const CHAINS_PER_CONN: usize = 128;
/// Chains per connection in the warm-up: 256 landed plans in all.
const WARMUP_CHAINS_PER_CONN: usize = 32;

/// The fixture plan at `index`: the index fixes the kind, algorithm, size
/// and threshold band; the seed jitters sizes and draws heterogeneous
/// thresholds.
fn fixture_instance(rng: &mut Rng, index: usize) -> Instance {
    let k = index / 2;
    let algorithm = |opq| match k % 10 {
        0..=6 => opq,
        7 | 8 => "greedy",
        _ => "baseline",
    };
    if index.is_multiple_of(2) {
        let threshold = [0.85, 0.9, 0.92, 0.95, 0.97, 0.99][k % 6];
        let n = 20 + ((k * 157) % 472) as u32 + rng.below(10) as u32;
        paper(algorithm("opq-based"), Tasks::Homogeneous { n, threshold })
    } else {
        let t: Vec<f64> = (0..60).map(|_| rng.uniform(0.7, 0.97, 3)).collect();
        paper(algorithm("opq-extended"), Tasks::Heterogeneous(t))
    }
}

/// A chain of four resubmits that ends on the workload it started from, so
/// every round replays the same requests against the same store. The last
/// step returns its plan for the byte-identity check. `k` spreads the
/// resize targets of homogeneous chains over 20..500.
fn chain(rng: &mut Rng, k: usize, id: &str, start: &Instance) -> Vec<Req> {
    let mut deltas = Vec::with_capacity(4);
    match &start.tasks {
        Tasks::Homogeneous { n, .. } => {
            for step in 0..3 {
                deltas.push(Delta::Resize(20 + ((3 * k + step) * 157 % 481) as u32));
            }
            deltas.push(Delta::Resize(*n));
        }
        Tasks::Heterogeneous(t) => {
            let extra: Vec<f64> = (0..3).map(|_| rng.uniform(0.7, 0.97, 3)).collect();
            deltas.push(Delta::Append(extra));
            let a = rng.below(t.len()) as u32;
            let b = (a + 1 + rng.below(t.len() - 1) as u32) % t.len() as u32;
            let changed = vec![
                (a, rng.uniform(0.7, 0.97, 3)),
                (b, rng.uniform(0.7, 0.97, 3)),
            ];
            deltas.push(Delta::SetThresholds(changed));
            deltas.push(Delta::SetThresholds(vec![
                (a, t[a as usize]),
                (b, t[b as usize]),
            ]));
            deltas.push(Delta::Resize(t.len() as u32));
        }
    }
    let mut tasks = start.tasks.clone();
    let last = deltas.len() - 1;
    deltas
        .into_iter()
        .enumerate()
        .map(|(i, delta)| {
            tasks = delta.apply(&tasks);
            Req {
                op: Op::Resubmit(delta),
                id: Some(id.to_string()),
                instance: Instance {
                    tasks: tasks.clone(),
                    ..start.clone()
                },
                want_plan: i == last,
            }
        })
        .collect()
}

/// resubmit-journal: the server boots on a journal of retained plans, and
/// each connection runs revision chains on ids it alone touches.
fn resubmit_journal(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 3);
    let fixture: Vec<FixturePlan> = (0..FIXTURE_PLANS)
        .map(|i| FixturePlan {
            id: format!("j{i:04}"),
            instance: fixture_instance(&mut rng, i),
        })
        .collect();
    let mut warmup: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    let mut round: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    for conn in 0..2 {
        // Connection `conn` owns the index pairs of parity `conn` (so both
        // kinds); the chains run on every seventh id, the warm-up on others.
        let owned: Vec<usize> = (0..FIXTURE_PLANS).filter(|i| (i / 2) % 2 == conn).collect();
        for k in 0..WARMUP_CHAINS_PER_CONN {
            let i = owned[7 * k + 3];
            warmup[conn].extend(chain(&mut rng, k, &fixture[i].id, &fixture[i].instance));
        }
        let chains: Vec<Vec<Req>> = (0..CHAINS_PER_CONN)
            .map(|k| {
                let i = owned[7 * k];
                chain(&mut rng, k, &fixture[i].id, &fixture[i].instance)
            })
            .collect();
        // Step-major order: a chain's next step waits a full pass of the
        // other chains.
        for step in 0..4 {
            round[conn].extend(chains.iter().map(|c| c[step].clone()));
        }
    }
    Workload {
        warmup,
        round,
        window: 1,
        fixture,
    }
}
