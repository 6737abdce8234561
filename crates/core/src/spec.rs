//! The sweep grammar, written once: every text form `ccq sweep` accepts.
//!
//! `GRAMMAR` is the table — one `Family` per sweep dimension, one
//! `(syntax, note)` row per form, plus `ALIASES` for the heads old argvs
//! hold — and `FLAGS` lists the scalar flags. Each family has a parser of
//! the shape `fn(&str) -> Result<T, String>`
//! ([`topo`], [`proto`], [`pattern`], [`arrival`], [`delay`],
//! [`admission`], [`priority`], [`fault`], [`shards`]), and [`sweep`] turns
//! a whole argv into a [`Sweep`]: the [`RunPlan`] plus the output flags.
//! [`grammar`] renders the table for `ccq list` and `ccq --help`, the
//! parsers read their field names and defaults out of the same syntax
//! strings, and every `unknown …` / `want …` diagnostic quotes them, so
//! help, errors and what actually parses cannot drift apart.
//!
//! ```
//! use ccq_core::spec;
//!
//! let argv = ["--topo", "list:8", "--proto", "relaxed", "--arrival", "poisson:rate=0.5"];
//! let sweep = spec::sweep(&argv).unwrap();
//! assert_eq!(sweep.plan.cases().len(), 1);
//! assert!(spec::arrival("poisson").unwrap_err().contains("missing required field `rate`"));
//! ```

use crate::plan::RunPlan;
use crate::protocol::{self, registry, registry_of, ProtocolKind, ProtocolSpec, ProtocolSpec::*};
use crate::run::ModelMode;
use crate::scenario::{
    AdmissionSpec, ArrivalSpec, FaultSpec, PrioritySpec, RequestPattern, ShardSpec, ShardStrategy,
    TopoSpec,
};
use crate::table::{Column, QQC_MAX, QQC_MEAN, QQC_P50, QQC_P95, QQC_P99};
use ccq_sim::{CrashFault, LinkDelay};
use std::ops::RangeInclusive;

/// One sweep dimension: its flag and the forms the flag's tokens take.
struct Family {
    /// Heading in help (`arrivals`).
    title: &'static str,
    /// The `ccq sweep` flag that takes these forms, comma-joined or
    /// repeated.
    flag: &'static str,
    /// What diagnostics call one token (``unknown arrival `x` ``).
    noun: &'static str,
    /// One line on the dimension as a whole.
    note: &'static str,
    /// One `(syntax, note)` row per accepted form. The syntax is the form
    /// as help prints it and as the parser reads it: its first word is the
    /// head that selects it, `key=X` parts name the fields a key=value
    /// form takes, `[…]` marks the optional ones, and a topology's
    /// `name=N` parts carry its defaults.
    forms: &'static [(&'static str, &'static str)],
}

/// `--topo`: the interconnection graphs.
static TOPO: Family = Family {
    title: "topologies",
    flag: "--topo",
    noun: "topology",
    note: "name[:param[:param...]], defaults as shown; no --topo means mesh2d:8,torus2d:4",
    forms: &[
        ("complete[:n=64]", "complete graph K_n"),
        ("list[:n=64]", "path on n vertices"),
        ("mesh2d[:side=8]", "side x side mesh"),
        ("mesh3d[:side=4]", "side^3 mesh"),
        ("hypercube[:dim=6]", "2^dim-vertex hypercube"),
        ("tree[:m=2[:depth=5]]", "perfect m-ary tree"),
        ("star[:n=64]", "star, hub = 0"),
        ("caterpillar[:spine=32[:legs=2]]", "spine with legs leaves each"),
        ("figure1", "the paper's 6-node Figure 1 graph"),
        ("torus2d[:side=8]", "side x side torus"),
        ("random-regular[:n=64[:d=4[:seed=1]]]", "random d-regular graph"),
    ],
};

/// `--proto`: registry protocols, width overrides and kind groups.
static PROTO: Family = Family {
    title: "protocols",
    flag: "--proto",
    noun: "protocol",
    note: "no --proto means every registry protocol",
    forms: &[
        ("name", "a registry protocol, as `ccq list` names it"),
        (PROTO_WIDTH, "{networks} at a power-of-two width"),
        ("all", "every registry protocol"),
        ("queuing", "the queuing protocols"),
        ("counting", "the exact counting protocols"),
        ("relaxed", "the coordination-free counters"),
    ],
};

/// `--pattern`: which processors request (the paper's `R ⊆ V`).
static PATTERN: Family = Family {
    title: "patterns",
    flag: "--pattern",
    noun: "pattern",
    note: "the request set R ⊆ V",
    forms: &[
        ("all", "every processor requests (R = V)"),
        ("random:<density>[:seed]", "each processor requests with probability density, in (0, 1]"),
        ("tail:<count>", "the count highest-numbered processors (a far-away cluster)"),
    ],
};

/// `--arrival`: when the request set issues its operations.
static ARRIVAL: Family = Family {
    title: "arrivals",
    flag: "--arrival",
    noun: "arrival",
    note: "when the request set issues; rates are per round, in (0, 1]",
    forms: &[
        ("oneshot", "every request at round 0, the paper's batch (same as no flag)"),
        ("poisson:rate=R[:seed=S]", "per-round Bernoulli arrivals at R requests/round"),
        ("bursty:rate=R:on=N:off=N[:seed=S]", "poisson at R in on-round bursts, off rounds apart"),
        (
            "hotspot:rate=R[:s=E][:seed=S]",
            "Zipf(E)-skewed order, low ids early (E > 0, default 1.1)",
        ),
    ],
};

/// `--delay`: how many rounds a hop takes.
static DELAY: Family = Family {
    title: "delays",
    flag: "--delay",
    noun: "delay",
    note: "per-hop link delay; every link stays FIFO",
    forms: &[
        ("unit", "one round per hop, the paper's model"),
        ("fixed:d=N", "N rounds per hop on every link"),
        ("perlink:max=N[:seed=S]", "a seeded constant in 1..=N per directed link"),
        ("jitter:max=N[:seed=S]", "1 + U[0, N] rounds per message"),
    ],
};

/// `--admission`: backpressure against the live backlog.
static ADMISSION: Family = Family {
    title: "admissions",
    flag: "--admission",
    noun: "admission",
    note: "backpressure against the live backlog",
    forms: &[
        ("open", "admit everything (same as no flag)"),
        ("droptail:bound=N", "shed arrivals that find the backlog at or above N"),
        (
            "delayretry:bound=N[:backoff=N]",
            "defer arrivals over the bound, retry every backoff (4) rounds",
        ),
        ("adaptive:target=N[:gain=N]", "AIMD throttle steering the backlog towards target"),
        (
            "pernode:bound=N[:protect=C]",
            "shed on the requester's shard backlog; classes < C always admit",
        ),
    ],
};

/// `--priority`: priority classes of the requesters.
static PRIORITY: Family = Family {
    title: "priorities",
    flag: "--priority",
    noun: "priority",
    note: "relaxed power-of-two-choices ordering of same-round admissions; \
           reports gain per-class latency percentiles",
    forms: &[
        ("uniform", "one class (same as no flag)"),
        ("split:frac=F[:seed=S]", "each node is class 0 (high) with probability F, else class 1"),
    ],
};

/// `--fault`: crash windows.
static FAULT: Family = Family {
    title: "faults",
    flag: "--fault",
    noun: "fault",
    note: "repeat or comma-join for up to 4 crash windows in one plan",
    forms: &[(
        "crash:at=R:node=N:recover=R2",
        "node N is down for rounds [R, R2): no deliveries, no sends, arrivals defer",
    )],
};

/// `--shards`: shard plans.
static SHARDS: Family = Family {
    title: "shards",
    flag: "--shards",
    noun: "shard plan",
    note: "e.g. 4, 4:edgecut, 2:contig:ferry=10",
    forms: &[(
        SHARD_PLAN,
        "k shards (1 = same as no flag); ferry=D fixes the inter-shard delay at D",
    )],
};

/// The `strategy` part of a `--shards` token.
static STRATEGY: Family = Family {
    title: "shard strategies",
    flag: "--shards",
    noun: "shard strategy",
    note: "how vertices are assigned to shards",
    forms: &[
        ("contig", "contiguous id blocks (the default)"),
        ("stripe", "round-robin, v mod k"),
        ("edgecut", "greedy edge-cut minimization"),
    ],
};

/// Heads old argvs may hold, and the canonical head each stands for.
const ALIASES: [(&str, &str); 4] =
    [("batch", "oneshot"), ("zipf", "hotspot"), ("contiguous", "contig"), ("striped", "stripe")];

/// Every family, in help order.
static GRAMMAR: [&Family; 10] =
    [&TOPO, &PROTO, &PATTERN, &ARRIVAL, &DELAY, &ADMISSION, &PRIORITY, &FAULT, &SHARDS, &STRATEGY];

/// A `ccq sweep` flag outside the families: `(syntax, note)`.
static FLAGS: [(&str, &str); 12] = [
    (
        "--modes paper|strict,expanded",
        "paper (default): queuing expanded, counting strict; a list crosses every protocol",
    ),
    (
        "--parallel-apply",
        "retired: runs the serialized walk; accepted so existing argvs and `.ccqrec` \
         recordings still run",
    ),
    (
        WAVEFRONT,
        "retired: runs the lockstep executor; accepted so existing argvs and `.ccqrec` \
         recordings still run",
    ),
    ("--timing", "add per-phase round timing to each case"),
    ("--checkpoint-every N", "hash engine state at every phase barrier of every Nth round"),
    ("--node-hashes", "add per-node digests to each checkpointed barrier"),
    ("--perturb R:V", "plant a transmit-skip at round R on node V (the bisect self-test fault)"),
    (
        QQC_FLAG,
        "also print per-case QQC lateness (rank displacement vs issue order), one column \
         per field; the JSON always carries every qqc_* field",
    ),
    ("--repeats N", "run every cell N times; seeded forms are re-seeded per repeat"),
    ("--seed S", "base seed mixed into the per-repeat re-seeding"),
    ("--json -|PATH", "write the run set as JSON; `-` prints it, and nothing else, on stdout"),
    ("--pretty", "indent the JSON"),
];

// Syntax strings a diagnostic quotes outside its family's `unknown …`.
const PROTO_WIDTH: &str = "name:width";
const SHARD_PLAN: &str = "k[:strategy][:ferry=D]";
const WAVEFRONT: &str = "--wavefront[:lag=d]";

/// `--qqc`'s row in `FLAGS`; help spells its fields out of `QQC`.
const QQC_FLAG: &str = "--qqc";

/// The QQC lateness statistics `--qqc` can select, in display order: the
/// field as the flag names it, and the column it adds to the table.
static QQC: [(&str, Column); 5] =
    [("max", QQC_MAX), ("mean", QQC_MEAN), ("p50", QQC_P50), ("p95", QQC_P95), ("p99", QQC_P99)];

/// The `--qqc` field names, joined by `sep`.
fn qqc_fields(sep: &str) -> String {
    QQC.iter().map(|q| q.0).collect::<Vec<_>>().join(sep)
}

/// The grammar as `ccq list` and `ccq --help` print it: every family's
/// forms, then the scalar flags.
pub fn grammar() -> String {
    let (mut out, networks) = (String::new(), networks());
    for family in GRAMMAR {
        out += &format!("\n{} (ccq sweep {}) — {}\n", family.title, family.flag, family.note);
        for (syntax, note) in family.forms {
            let note = note.replace("{networks}", &networks);
            out += &format!("  {syntax:<38} {note}\n");
        }
    }
    out += "\nother sweep flags:\n";
    for (syntax, note) in FLAGS {
        let syntax = match syntax {
            QQC_FLAG => format!("{QQC_FLAG} {}", qqc_fields(",")),
            other => other.to_string(),
        };
        out += &format!("  {syntax:<38} {note}\n");
    }
    out
}

/// The registry protocols that take a width, as help lists them:
/// `a, b or c`.
fn networks() -> String {
    let networks = registry().iter().filter(|p| p.with_width(2).is_some());
    let names: Vec<&str> = networks.map(|p| p.name()).collect();
    let (last, rest) = names.split_last().expect("the registry has a network");
    format!("{} or {last}", rest.join(", "))
}

/// The word a syntax leads with: the head that selects its form.
fn head(syntax: &str) -> &str {
    syntax.split([':', '[']).next().unwrap_or_default()
}

/// The `key=…` parts of a syntax, in order, as `(key, placeholder)`.
fn fields_of(syntax: &'static str) -> impl Iterator<Item = (&'static str, &'static str)> {
    syntax.split([':', '[', ']']).filter_map(|part| part.split_once('='))
}

impl Family {
    /// The syntax of the form `word` selects, by its head or an alias.
    fn form(&self, word: &str) -> Option<&'static str> {
        let canonical = ALIASES.iter().find(|(alias, _)| *alias == word).map_or(word, |a| a.1);
        self.forms.iter().map(|&(syntax, _)| syntax).find(|syntax| head(syntax) == canonical)
    }

    /// `a | b | c` over the family's forms, for diagnostics.
    fn syntaxes(&self) -> String {
        self.forms.iter().map(|f| f.0).collect::<Vec<_>>().join(" | ")
    }

    /// The form `token`'s head names, or the family's `unknown …` error.
    fn resolve(&self, token: &str) -> Result<&'static str, String> {
        let word = token.split(':').next().unwrap_or_default();
        self.form(word)
            .ok_or_else(|| format!("unknown {} `{word}` ({})", self.noun, self.syntaxes()))
    }

    /// Split a `head[:key=value…]` token: the canonical head of the form
    /// it names, and its fields checked against that form's syntax.
    fn fields<'a>(&self, token: &'a str) -> Result<(&'static str, Fields<'a>), String> {
        let syntax = self.resolve(token)?;
        let allowed: Vec<&str> = fields_of(syntax).map(|(key, _)| key).collect();
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for part in token.split(':').skip(1) {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("expected key=value, got `{part}` in `{token}`"));
            };
            if !allowed.contains(&key) {
                return Err(format!(
                    "unknown field `{key}` in `{token}` (expected one of: {})",
                    allowed.join(", ")
                ));
            }
            if pairs.iter().any(|&(k, _)| k == key) {
                return Err(format!("field `{key}` given twice in `{token}`"));
            }
            pairs.push((key, value));
        }
        Ok((head(syntax), Fields { token, pairs }))
    }
}

/// The `key=value` fields of one token, every key known and given once.
struct Fields<'a> {
    token: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl Fields<'_> {
    /// Field `key` parsed as `T`, or `default` when the token omits it; an
    /// omitted field without a default is an error naming it.
    fn get<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        let token = self.token;
        match self.pairs.iter().find(|&&(k, _)| k == key) {
            Some(&(_, raw)) => {
                raw.parse().map_err(|_| format!("bad value `{raw}` for field `{key}` in `{token}`"))
            }
            None => default.ok_or_else(|| format!("missing required field `{key}` in `{token}`")),
        }
    }

    /// An integer field held to `range`.
    fn int(
        &self,
        key: &str,
        default: Option<u64>,
        range: RangeInclusive<u64>,
    ) -> Result<u64, String> {
        check_range(self.token, key, self.get(key, default)?, range)
    }

    /// A required per-round rate, in (0, 1].
    fn rate(&self) -> Result<f64, String> {
        check_unit(self.token, "rate", self.get("rate", None)?)
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed", Some(1))
    }
}

fn check_range(token: &str, key: &str, v: u64, range: RangeInclusive<u64>) -> Result<u64, String> {
    if v < *range.start() {
        Err(format!("field `{key}` must be ≥ {} in `{token}`", range.start()))
    } else if v > *range.end() {
        Err(format!("field `{key}` must be ≤ {} in `{token}`", range.end()))
    } else {
        Ok(v)
    }
}

/// A per-node probability (`rate`, `density`): in (0, 1], which also
/// rejects NaN.
fn check_unit(token: &str, key: &str, v: f64) -> Result<f64, String> {
    if v > 0.0 && v <= 1.0 {
        Ok(v)
    } else {
        Err(format!("field `{key}` must be in (0, 1], got {v} in `{token}`"))
    }
}

/// Reject parameters beyond those `syntax` spells — one `:` apiece, in
/// the token as in the syntax — instead of silently dropping them.
fn check_arity(token: &str, syntax: &str) -> Result<(), String> {
    if token.matches(':').count() > syntax.matches(':').count() {
        return Err(format!("too many parameters in `{token}` (want {syntax})"));
    }
    Ok(())
}

/// Largest processor count a token may ask for — keeps typos like
/// `hypercube:40` from attempting terabyte allocations.
const MAX_CLI_N: usize = 1 << 22;

/// Largest edge count a token may ask for: the dense families reach
/// gigabytes of adjacency long before they reach `MAX_CLI_N` processors
/// (`complete:8192`, 33.5 M edges and about 1 GB, still runs).
const MAX_CLI_EDGES: usize = 1 << 26;

/// Largest shard count — every shard carries per-node state, so a typo
/// like `--shards 40000000` should fail fast.
const MAX_CLI_SHARDS: usize = 4096;

/// Largest network width / leaf count — a network's build is linear in its
/// `w·lg²w/2` balancers (`periodic-network:4096` on `torus2d:8`: 0.02 s on
/// a 2-vCPU Xeon), and past this a typo asks for hundreds of MB of wires.
/// It bounds the wires only: the next-hop tables grow with the graph too,
/// and [`MAX_CLI_TABLE_WORDS`] bounds them.
const MAX_CLI_WIDTH: usize = 4096;

/// Largest next-hop table a balancing network may keep: one `n`-word BFS
/// table per distinct host, so `counting-network:4096` on `torus2d:128`
/// would ask for 1 GiB. The cap is the adjacency `MAX_CLI_EDGES` allows:
/// `2^27` words of four bytes (a `u32` vertex id), 512 MiB.
const MAX_CLI_TABLE_WORDS: usize = 1 << 27;

/// Largest per-hop delay (and round-valued field) — big enough for any
/// plausible heterogeneity study, small enough that round arithmetic
/// cannot overflow.
const MAX_CLI_DELAY: u64 = 1_000_000;

/// Largest admission bound/target (a backlog can never exceed the
/// processor count, itself capped at `MAX_CLI_N`).
const MAX_CLI_BOUND: u64 = MAX_CLI_N as u64;

/// Most crash windows one `--fault` plan may hold (the `FAULT` note spells
/// it too). The engine caps nothing, but it scans the plan for every
/// frontier node it walks, so a long plan lengthens every walk.
const MAX_CLI_FAULTS: usize = 4;

/// Parse one `--topo` token.
pub fn topo(token: &str) -> Result<TopoSpec, String> {
    let mut parts = token.split(':');
    let name = parts.next().unwrap_or_default();
    let params: Vec<usize> = parts
        .map(|p| p.parse().map_err(|_| format!("bad numeric parameter in `{token}`")))
        .collect::<Result<_, _>>()?;
    if params.contains(&0) {
        return Err(format!("topology parameters must be ≥ 1 in `{token}`"));
    }
    let Some(syntax) = TOPO.form(name) else {
        return Err(format!("unknown topology `{name}` (see `ccq list`)"));
    };
    check_arity(token, syntax)?;
    // An omitted parameter takes the default its row spells.
    let defaults: Vec<usize> = fields_of(syntax).filter_map(|(_, d)| d.parse().ok()).collect();
    let p = |i: usize| params.get(i).copied().unwrap_or(defaults[i]);
    let spec = match head(syntax) {
        "complete" => TopoSpec::Complete { n: p(0) },
        "list" => TopoSpec::List { n: p(0) },
        "mesh2d" => TopoSpec::Mesh2D { side: p(0) },
        "mesh3d" => TopoSpec::Mesh3D { side: p(0) },
        "hypercube" => TopoSpec::Hypercube { dim: p(0) },
        "tree" => {
            if p(0) < 2 {
                return Err(format!("tree arity must be ≥ 2 in `{token}` (tree:<arity>:<depth>)"));
            }
            TopoSpec::PerfectTree { m: p(0), depth: p(1) }
        }
        "star" => TopoSpec::Star { n: p(0) },
        "caterpillar" => TopoSpec::Caterpillar { spine: p(0), legs: p(1) },
        "figure1" => TopoSpec::Figure1,
        "torus2d" => {
            if p(0) < 3 {
                return Err(format!(
                    "torus side must be ≥ 3 in `{token}` (a shorter ring doubles its own edges)"
                ));
            }
            TopoSpec::Torus2D { side: p(0) }
        }
        "random-regular" => {
            let (n, d) = (p(0), p(1));
            if d >= n || !(n * d).is_multiple_of(2) {
                return Err(format!(
                    "random-regular needs d < n and n·d even, got n={n} d={d} in `{token}`"
                ));
            }
            TopoSpec::RandomRegular { n, d, seed: p(2) as u64 }
        }
        head => unreachable!("topology row `{head}` has no parser arm"),
    };
    let n = approx_size(&spec);
    if n > MAX_CLI_N {
        return Err(format!("`{token}` would build {n} processors (limit {MAX_CLI_N})"));
    }
    let edges = match spec {
        TopoSpec::Complete { n } => n.saturating_mul(n - 1) / 2,
        TopoSpec::Hypercube { dim } => n.saturating_mul(dim) / 2,
        TopoSpec::RandomRegular { n, d, .. } => n.saturating_mul(d) / 2,
        // Paths, stars, trees, meshes and tori: at most three edges a processor.
        _ => n,
    };
    if edges > MAX_CLI_EDGES {
        return Err(format!("`{token}` would build {edges} edges (limit {MAX_CLI_EDGES})"));
    }
    Ok(spec)
}

/// Processor count a spec resolves to, saturating (pre-build sanity check).
fn approx_size(spec: &TopoSpec) -> usize {
    match *spec {
        TopoSpec::Complete { n } | TopoSpec::List { n } | TopoSpec::Star { n } => n,
        TopoSpec::Mesh2D { side } | TopoSpec::Torus2D { side } => side.saturating_mul(side),
        TopoSpec::Mesh3D { side } => side.saturating_mul(side).saturating_mul(side),
        TopoSpec::Hypercube { dim } => 1usize.checked_shl(dim as u32).unwrap_or(usize::MAX),
        TopoSpec::PerfectTree { m, depth } => {
            let mut n = 1usize;
            let mut level = 1usize;
            for _ in 0..depth {
                level = level.saturating_mul(m);
                n = n.saturating_add(level);
            }
            n
        }
        TopoSpec::Caterpillar { spine, legs } => spine.saturating_mul(legs.saturating_add(1)),
        TopoSpec::Figure1 => 6,
        TopoSpec::RandomRegular { n, .. } => n,
    }
}

/// Parse one `--proto` token: a registry name, `name:width`, or a group
/// (`all`, or a [`ProtocolKind::label`]) standing for several protocols.
pub fn proto(token: &str) -> Result<Vec<ProtocolSpec>, String> {
    if token == "all" {
        return Ok(registry().to_vec());
    }
    let kinds = [ProtocolKind::Queuing, ProtocolKind::Counting, ProtocolKind::Relaxed];
    if let Some(kind) = kinds.into_iter().find(|k| k.label() == token) {
        return Ok(registry_of(kind).copied().collect());
    }
    let (name, w) = token.split_once(':').map_or((token, None), |(name, w)| (name, Some(w)));
    let Some(spec) = protocol::find(name) else {
        let known: Vec<&str> = registry().iter().map(|p| p.name()).collect();
        return Err(format!("unknown protocol `{name}` (known: {})", known.join(", ")));
    };
    let Some(w) = w else {
        return Ok(vec![*spec]);
    };
    let w: usize = w.parse().map_err(|_| format!("bad width in `{token}` (want {PROTO_WIDTH})"))?;
    let spec =
        spec.with_width(w).ok_or_else(|| format!("protocol `{name}` does not take a width"))?;
    if !(w.is_power_of_two() && (2..=MAX_CLI_WIDTH).contains(&w)) {
        return Err(format!(
            "width must be a power of two in 2..={MAX_CLI_WIDTH}, got {w} in `{token}`"
        ));
    }
    Ok(vec![spec])
}

/// Refuse a network whose next-hop tables on `topo` would pass
/// [`MAX_CLI_TABLE_WORDS`]: at most `balancers + w` hosts, each an
/// `n`-word table, at the explicit or the default width `w`.
fn check_tables(topo: &TopoSpec, spec: &ProtocolSpec) -> Result<(), String> {
    let n = approx_size(topo);
    let Some(w) = spec.effective_width(n) else {
        return Ok(());
    };
    let lg = w.trailing_zeros() as usize;
    let balancers = match spec {
        CountingNetwork { .. } => w * lg * (lg + 1) / 4,
        PeriodicNetwork { .. } => w * lg * lg / 2,
        // One toggle per internal node.
        ToggleTree { .. } => w - 1,
        Arrow | ArrowNotify | CentralQueue | CombiningQueue | CentralCounter | CombiningTree
        | CrdtCounter => return Ok(()),
    };
    let words = (balancers + w).min(n).saturating_mul(n);
    if words > MAX_CLI_TABLE_WORDS {
        return Err(format!(
            "`{}` at width {w} on {} would keep {words} words of next-hop tables \
             (limit {MAX_CLI_TABLE_WORDS})",
            spec.name(),
            topo.name()
        ));
    }
    Ok(())
}

/// Parse one `--pattern` token.
pub fn pattern(token: &str) -> Result<RequestPattern, String> {
    let syntax = PATTERN.resolve(token)?;
    check_arity(token, syntax)?;
    let parts: Vec<&str> = token.split(':').collect();
    match head(syntax) {
        "all" => Ok(RequestPattern::All),
        "random" => {
            let density: f64 = parts
                .get(1)
                .ok_or_else(|| format!("random pattern needs a density ({syntax})"))?
                .parse()
                .map_err(|_| format!("bad density in `{token}`"))?;
            let density = check_unit(token, "density", density)?;
            let seed: u64 = match parts.get(2) {
                Some(s) => s.parse().map_err(|_| format!("bad seed in `{token}`"))?,
                None => 1,
            };
            Ok(RequestPattern::Random { density, seed })
        }
        "tail" => {
            let count: usize = parts
                .get(1)
                .ok_or_else(|| format!("tail pattern needs a count ({syntax})"))?
                .parse()
                .map_err(|_| format!("bad count in `{token}`"))?;
            Ok(RequestPattern::TailCluster { count })
        }
        head => unreachable!("pattern row `{head}` has no parser arm"),
    }
}

/// Parse one `--arrival` token.
pub fn arrival(token: &str) -> Result<ArrivalSpec, String> {
    let (head, f) = ARRIVAL.fields(token)?;
    Ok(match head {
        "oneshot" => ArrivalSpec::OneShot,
        "poisson" => ArrivalSpec::Poisson { rate: f.rate()?, seed: f.seed()? },
        "bursty" => ArrivalSpec::Bursty {
            rate: f.rate()?,
            on: f.int("on", None, 1..=MAX_CLI_DELAY)?,
            off: f.int("off", None, 0..=MAX_CLI_DELAY)?,
            seed: f.seed()?,
        },
        "hotspot" => {
            let rate = f.rate()?;
            let s: f64 = f.get("s", Some(1.1))?;
            // NaN weights would still draw a schedule; refuse them here.
            if !(s > 0.0 && s.is_finite()) {
                return Err(format!("field `s` must be > 0 and finite, got {s} in `{token}`"));
            }
            ArrivalSpec::Hotspot { rate, s, seed: f.seed()? }
        }
        head => unreachable!("arrival row `{head}` has no parser arm"),
    })
}

/// Parse one `--delay` token.
pub fn delay(token: &str) -> Result<LinkDelay, String> {
    let (head, f) = DELAY.fields(token)?;
    Ok(match head {
        "unit" => LinkDelay::Unit,
        "fixed" => LinkDelay::Fixed { delay: f.int("d", None, 1..=MAX_CLI_DELAY)? },
        "perlink" => {
            LinkDelay::PerLink { max: f.int("max", None, 1..=MAX_CLI_DELAY)?, seed: f.seed()? }
        }
        "jitter" => {
            LinkDelay::Jitter { max: f.int("max", None, 0..=MAX_CLI_DELAY)?, seed: f.seed()? }
        }
        head => unreachable!("delay row `{head}` has no parser arm"),
    })
}

/// Parse one `--admission` token.
pub fn admission(token: &str) -> Result<AdmissionSpec, String> {
    let (head, f) = ADMISSION.fields(token)?;
    let bound = |key: &str| f.int(key, None, 1..=MAX_CLI_BOUND).map(|v| v as usize);
    Ok(match head {
        "open" => AdmissionSpec::Open,
        "droptail" => AdmissionSpec::DropTail { bound: bound("bound")? },
        "delayretry" => AdmissionSpec::DelayRetry {
            bound: bound("bound")?,
            backoff: f.int("backoff", Some(4), 1..=MAX_CLI_DELAY)?,
        },
        "adaptive" => AdmissionSpec::Adaptive {
            target_backlog: bound("target")?,
            gain: f.int("gain", Some(1), 1..=MAX_CLI_DELAY)?,
        },
        "pernode" => {
            AdmissionSpec::PerNode { bound: bound("bound")?, protect: f.get("protect", Some(0))? }
        }
        head => unreachable!("admission row `{head}` has no parser arm"),
    })
}

/// Parse one `--priority` token.
pub fn priority(token: &str) -> Result<PrioritySpec, String> {
    let (head, f) = PRIORITY.fields(token)?;
    Ok(match head {
        "uniform" => PrioritySpec::Uniform,
        "split" => {
            let frac: f64 = f.get("frac", None)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("field `frac` must be in [0, 1], got {frac} in `{token}`"));
            }
            PrioritySpec::Split { frac, seed: f.seed()? }
        }
        head => unreachable!("priority row `{head}` has no parser arm"),
    })
}

/// Parse one `--fault` token into the crash window it adds to the sweep's
/// fault plan.
pub fn fault(token: &str) -> Result<CrashFault, String> {
    let (head, f) = FAULT.fields(token)?;
    match head {
        "crash" => {
            let at = f.int("at", None, 1..=MAX_CLI_DELAY)?;
            let recover = f.int("recover", None, 1..=MAX_CLI_DELAY)?;
            if recover <= at {
                return Err(format!(
                    "field `recover` must be after field `at` in `{token}` \
                     (the node is down for rounds [at, recover))"
                ));
            }
            let node: u64 = f.get("node", None)?;
            if node >= MAX_CLI_N as u64 {
                return Err(format!("field `node` must be < {MAX_CLI_N} in `{token}`"));
            }
            Ok(CrashFault { node: node as usize, at, recover })
        }
        head => unreachable!("fault row `{head}` has no parser arm"),
    }
}

/// Parse one `--shards` token.
pub fn shards(token: &str) -> Result<ShardSpec, String> {
    let mut parts = token.split(':');
    let k: usize = parts
        .next()
        .unwrap_or_default()
        .parse()
        .map_err(|_| format!("bad shard count in `{token}` (want {SHARD_PLAN})"))?;
    if k < 1 {
        return Err(format!("shard count must be ≥ 1 in `{token}`"));
    }
    if k > MAX_CLI_SHARDS {
        return Err(format!("shard count must be ≤ {MAX_CLI_SHARDS} in `{token}`"));
    }
    let mut strategy: Option<ShardStrategy> = None;
    let mut ferry: Option<u64> = None;
    for part in parts {
        if let Some(raw) = part.strip_prefix("ferry=") {
            if ferry.is_some() {
                return Err(format!("field `ferry` given twice in `{token}`"));
            }
            let d: u64 = raw
                .parse()
                .map_err(|_| format!("bad value `{raw}` for field `ferry` in `{token}`"))?;
            ferry = Some(check_range(token, "ferry", d, 1..=MAX_CLI_DELAY)?);
            continue;
        }
        let parsed = match STRATEGY.form(part).map(head) {
            Some("contig") => ShardStrategy::Contiguous,
            Some("stripe") => ShardStrategy::Striped,
            Some("edgecut") => ShardStrategy::EdgeCut,
            Some(head) => unreachable!("shard strategy row `{head}` has no parser arm"),
            None => {
                return Err(format!(
                    "unknown shard strategy `{part}` in `{token}` ({}, or ferry=D)",
                    STRATEGY.syntaxes()
                ))
            }
        };
        if strategy.is_some() {
            return Err(format!("shard strategy given twice in `{token}`"));
        }
        strategy = Some(parsed);
    }
    let mut spec = ShardSpec::new(k, strategy.unwrap_or(ShardStrategy::Contiguous));
    if let Some(d) = ferry {
        spec = spec.with_inter_delay(LinkDelay::Fixed { delay: d });
    }
    Ok(spec)
}

/// A parsed `ccq sweep` argv: the plan, and the flags that only shape
/// output.
pub struct Sweep {
    /// The plan every other flag built.
    pub plan: RunPlan,
    /// `--json -|PATH`.
    pub json: Option<String>,
    /// `--pretty`.
    pub pretty: bool,
    /// `--qqc`'s columns, in the order given.
    pub qqc: Option<Vec<Column>>,
    /// The `--checkpoint-every` interval the plan runs with (the last one
    /// given wins); 0 without the flag.
    pub checkpoint_every: u64,
}

/// Parse each comma-separated token of `value` onto `into`.
fn each<T>(
    value: &str,
    parse: fn(&str) -> Result<T, String>,
    into: &mut Vec<T>,
) -> Result<(), String> {
    for tok in value.split(',') {
        into.push(parse(tok)?);
    }
    Ok(())
}

/// Set a dimension the argv named; one it never named keeps
/// [`RunPlan::new`]'s default.
fn set<T>(plan: RunPlan, xs: Vec<T>, with: impl FnOnce(RunPlan, Vec<T>) -> RunPlan) -> RunPlan {
    if xs.is_empty() {
        plan
    } else {
        with(plan, xs)
    }
}

/// Parse a `ccq sweep` argv (everything after the subcommand). `sweep`,
/// `record`, `replay` and `bisect` all build their plan here, so a
/// recorded argv re-runs through exactly the path that produced it.
pub fn sweep<S: AsRef<str>>(args: &[S]) -> Result<Sweep, String> {
    let mut plan = RunPlan::new();
    let (mut json, mut pretty, mut qqc, mut checkpoint_every) = (None, false, None, 0);
    let mut topos = Vec::new();
    let mut protos = Vec::new();
    let mut patterns = Vec::new();
    let mut arrivals = Vec::new();
    let mut delays = Vec::new();
    let mut admissions = Vec::new();
    let mut priorities = Vec::new();
    let mut faults = FaultSpec::none();
    let mut shard_plans = Vec::new();
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a {
            "--topo" => each(value()?, topo, &mut topos)?,
            "--proto" => each(value()?, proto, &mut protos)?,
            "--pattern" => each(value()?, pattern, &mut patterns)?,
            "--arrival" => each(value()?, arrival, &mut arrivals)?,
            "--delay" => each(value()?, delay, &mut delays)?,
            "--admission" => each(value()?, admission, &mut admissions)?,
            "--priority" => each(value()?, priority, &mut priorities)?,
            "--shards" => each(value()?, shards, &mut shard_plans)?,
            "--fault" => {
                // Each token adds one crash window; repeated flags and
                // comma-joined tokens compose into a single fault plan.
                for tok in value()?.split(',') {
                    let crash = fault(tok)?;
                    if faults.crashes.len() == MAX_CLI_FAULTS {
                        return Err(format!(
                            "`{tok}`: fault plan holds at most {MAX_CLI_FAULTS} crashes"
                        ));
                    }
                    faults.crashes.push(crash);
                    faults.check_disjoint().map_err(|e| format!("`{tok}`: {e}"))?;
                }
            }
            "--modes" => {
                let v = value()?;
                if v != "paper" {
                    let mut modes = Vec::new();
                    for tok in v.split(',') {
                        modes.push(match tok {
                            "strict" => ModelMode::Strict,
                            "expanded" => ModelMode::Expanded,
                            other => return Err(format!("unknown mode `{other}`")),
                        });
                    }
                    plan = plan.modes(modes);
                }
            }
            // Retired: parsed (a malformed `--wavefront:` spelling still
            // fails) so old argvs and recordings run, on the one lockstep
            // executor and its one serialized deliver walk.
            "--parallel-apply" | "--wavefront" => {}
            "--timing" => plan = plan.timing(true),
            "--checkpoint-every" => {
                let need = "--checkpoint-every needs an integer ≥ 1";
                checkpoint_every = value()?.parse().map_err(|_| need)?;
                if checkpoint_every < 1 {
                    return Err(need.to_string());
                }
                plan = plan.checkpoint_every(checkpoint_every);
            }
            "--node-hashes" => plan = plan.node_hashes(true),
            "--qqc" => {
                let mut columns: Vec<Column> = Vec::new();
                for tok in value()?.split(',') {
                    let Some(&(_, column)) = QQC.iter().find(|q| q.0 == tok) else {
                        return Err(format!(
                            "unknown qqc field `{tok}` (expected one of: {})",
                            qqc_fields(", ")
                        ));
                    };
                    if columns.iter().any(|c| c.0 == column.0) {
                        return Err(format!("qqc field `{tok}` given twice"));
                    }
                    columns.push(column);
                }
                qqc = Some(columns);
            }
            "--perturb" => {
                let v = value()?;
                let (r, n) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--perturb wants round:node, got `{v}`"))?;
                let round = r.parse().map_err(|_| format!("bad round in `--perturb {v}`"))?;
                let node = n.parse().map_err(|_| format!("bad node in `--perturb {v}`"))?;
                plan = plan.perturb(round, node);
            }
            "--repeats" => {
                let need = "--repeats needs an integer ≥ 1";
                plan = plan.repeats(value()?.parse().ok().filter(|&r| r >= 1).ok_or(need)?);
            }
            "--seed" => plan = plan.seed(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--json" => json = Some(value()?.to_string()),
            "--pretty" => pretty = true,
            // The retired flag's one parameter: validated, then dropped.
            other if other.starts_with("--wavefront:") => {
                let raw = &other["--wavefront:".len()..];
                let Some(lag) = raw.strip_prefix("lag=") else {
                    return Err(format!("bad `--wavefront` parameter `{raw}` (want {WAVEFRONT})"));
                };
                let lag: u64 =
                    lag.parse().map_err(|_| format!("bad lag in `{other}` (want {WAVEFRONT})"))?;
                if lag < 1 {
                    return Err("--wavefront:lag=d needs d ≥ 1".to_string());
                }
            }
            other => return Err(format!("unknown `ccq sweep` flag `{other}`")),
        }
    }
    if topos.is_empty() {
        // Default pair: one mesh, one beyond-paper torus — so open-system
        // sweeps exercise at least two topologies out of the box.
        topos = vec![TopoSpec::Mesh2D { side: 8 }, TopoSpec::Torus2D { side: 4 }];
    }
    let protos: Vec<ProtocolSpec> = protos.into_iter().flatten().collect();
    let specs = if protos.is_empty() { registry() } else { &protos };
    for topo in &topos {
        for spec in specs {
            check_tables(topo, spec)?;
        }
    }
    plan = plan.topologies(topos).protocols(&protos).faults([faults]);
    plan = set(plan, patterns, RunPlan::patterns);
    plan = set(plan, arrivals, RunPlan::arrivals);
    plan = set(plan, delays, RunPlan::delays);
    plan = set(plan, admissions, RunPlan::admissions);
    plan = set(plan, priorities, RunPlan::priorities);
    plan = set(plan, shard_plans, RunPlan::shards);
    Ok(Sweep { plan, json, pretty, qqc, checkpoint_every })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every malformed or unbuildable spelling is an `Err` whose message
    /// holds every needle: the offending field or token and the rule.
    #[test]
    fn malformed_and_unbuildable_specs_are_named_errors() {
        let five_crashes = "crash:at=1:node=0:recover=2,crash:at=1:node=1:recover=2,\
                            crash:at=1:node=2:recover=2,crash:at=1:node=3:recover=2,\
                            crash:at=1:node=4:recover=2";
        let rows: &[(&[&str], &[&str])] = &[
            // Arrivals, delays, admissions: the message names the bad field.
            (&["--arrival", "poisson:rate=oops"], &["rate"]),
            (&["--arrival", "poisson"], &["rate"]),
            (&["--arrival", "poisson:rate=7"], &["rate"]),
            (&["--arrival", "bursty:rate=0.5:on=4"], &["off"]),
            (&["--arrival", "hotspot:rate=0.2:zipf=2"], &["zipf"]),
            (&["--arrival", "warp-drive"], &["unknown arrival"]),
            (&["--delay", "jitter:max="], &["max"]),
            (&["--delay", "jitter:max=18446744073709551615"], &["max"]),
            (&["--delay", "jitter:wobble=3"], &["wobble"]),
            (&["--delay", "fixed:d=0"], &["d"]),
            (&["--delay", "molasses"], &["unknown delay"]),
            (&["--arrival", "bursty:rate=0.5:on=0:off=4"], &["on"]),
            (&["--admission", "droptail"], &["bound"]),
            (&["--admission", "droptail:bound=0"], &["bound"]),
            (&["--admission", "droptail:bound=oops"], &["bound"]),
            (&["--admission", "adaptive:bound=4"], &["bound"]),
            (&["--admission", "delayretry:bound=4:backoff=0"], &["backoff"]),
            (&["--admission", "open:bound=4"], &["bound"]),
            (&["--admission", "clairvoyant"], &["unknown admission"]),
            // A Zipf exponent must be a positive finite number.
            (
                &["--arrival", "hotspot:rate=0.5:s=nan"],
                &["field `s` must be > 0 and finite, got NaN in `hotspot:rate=0.5:s=nan`"],
            ),
            (&["--arrival", "hotspot:rate=0.5:s=inf"], &["field `s` must be > 0 and finite"]),
            (&["--arrival", "zipf:rate=0.5:s=-3"], &["must be > 0 and finite, got -3"]),
            // Shard plans.
            (&["--shards", "0"], &["shard count"]),
            (&["--shards", "many"], &["bad shard count"]),
            (&["--shards", "4:mitosis"], &["unknown shard strategy"]),
            (&["--shards", "9999999"], &["shard count"]),
            // Priorities, faults, per-node admission.
            (&["--priority", "vip"], &["unknown priority"]),
            (&["--priority", "split"], &["missing required field `frac`"]),
            (&["--priority", "split:frac=1.5"], &["field `frac`"]),
            (&["--priority", "split:frac=0.5:vip=1"], &["unknown field `vip`"]),
            (&["--fault", "meteor:at=3"], &["unknown fault"]),
            (&["--fault", "crash:at=3:node=1"], &["missing required field `recover`"]),
            (&["--fault", "crash:at=0:node=1:recover=4"], &["field `at`"]),
            (&["--fault", "crash:at=9:node=1:recover=4"], &["field `recover`"]),
            (&["--fault", five_crashes], &["at most 4"]),
            (
                &["--fault", "crash:at=1:node=1:recover=5,crash:at=3:node=1:recover=9"],
                &["`crash:at=3:node=1:recover=9`", "[1, 5) and [3, 9) on node 1 overlap"],
            ),
            (&["--admission", "pernode"], &["missing required field `bound`"]),
            (&["--admission", "pernode:bound=0"], &["field `bound`"]),
            (&["--admission", "pernode:bound=4:protect=many"], &["field `protect`"]),
            // The wavefront flag.
            (&["--wavefront:lag=0"], &["lag"]),
            (&["--wavefront:lag=oops"], &["bad lag"]),
            (&["--wavefront:depth=3"], &["--wavefront"]),
            // QQC fields.
            (&["--qqc", "mean,median"], &["unknown qqc field `median`"]),
            (&["--qqc", "mean,median"], &["max, mean, p50, p95, p99"]),
            (&["--qqc", "mean,mean"], &["qqc field `mean` given twice"]),
            (&["--qqc", ""], &["unknown qqc field"]),
            // Each of these once reached a builder assertion, built for
            // minutes, or ran on a meaningless density; the message names
            // the token and the rule.
            (&["--topo", "torus2d:1"], &["torus side must be ≥ 3", "`torus2d:1`"]),
            (&["--topo", "torus2d:2"], &["torus side must be ≥ 3", "`torus2d:2`"]),
            (&["--topo", "tree:1:5"], &["tree arity must be ≥ 2", "`tree:1:5`"]),
            (
                &["--proto", "counting-network:3"],
                &["power of two in 2..=4096", "`counting-network:3`"],
            ),
            (
                &["--proto", "counting-network:0"],
                &["power of two in 2..=4096", "`counting-network:0`"],
            ),
            (
                &["--proto", "periodic-network:6"],
                &["power of two in 2..=4096", "`periodic-network:6`"],
            ),
            (&["--proto", "toggle-tree:1"], &["power of two in 2..=4096", "`toggle-tree:1`"]),
            (
                &["--proto", "counting-network:65536"],
                &["power of two in 2..=4096", "`counting-network:65536`"],
            ),
            // The name is looked up first: a misspelled network is unknown,
            // whatever its width, and a known one is checked for taking one.
            (&["--proto", "couting-network:8"], &["unknown protocol `couting-network` (known: "]),
            (&["--proto", "nope:x"], &["unknown protocol `nope` (known: "]),
            (&["--proto", "arrow:8"], &["protocol `arrow` does not take a width"]),
            (&["--proto", "counting-network:x"], &["bad width in `counting-network:x`"]),
            (&["--proto", "counting-network:3"], &["power of two in 2..=4096, got 3"]),
            (&["--pattern", "random:7"], &["field `density` must be in (0, 1]", "`random:7`"]),
            (&["--pattern", "random:-1"], &["field `density` must be in (0, 1]", "`random:-1`"]),
            (&["--pattern", "random:nan"], &["field `density` must be in (0, 1]", "`random:nan`"]),
            // Under the width cap, but gigabytes of next-hop tables
            // (16 384 hosts × 16 384 words).
            (
                &["--topo", "torus2d:128", "--proto", "counting-network:4096"],
                &[
                    "`counting-network` at width 4096 on torus2d(128x128)",
                    "268435456 words of next-hop tables (limit 134217728)",
                ],
            ),
            // The default width counts too: 32 on a million processors.
            (
                &["--topo", "torus2d:1000"],
                &["`counting-network` at width 32 on torus2d(1000x1000)", "limit 134217728"],
            ),
            // Under the 4 M-processor cap, but gigabytes of adjacency.
            (
                &["--topo", "complete:60000"],
                &["1799970000 edges (limit 67108864)", "`complete:60000`"],
            ),
            (
                &["--topo", "random-regular:4000000:3999998"],
                &["7999996000000 edges (limit 67108864)", "`random-regular:4000000:3999998`"],
            ),
            // A zero count used to run once (repeats) without saying so.
            (&["--repeats", "0"], &["--repeats needs an integer ≥ 1"]),
            (&["--repeats", "many"], &["--repeats needs an integer ≥ 1"]),
            (&["--checkpoint-every", "0"], &["--checkpoint-every needs an integer ≥ 1"]),
            // Surplus parameters used to be dropped silently.
            (&["--topo", "list:4:7:9"], &["too many parameters", "`list:4:7:9`"]),
            (&["--topo", "figure1:9"], &["too many parameters", "`figure1:9`"]),
        ];
        for (args, needles) in rows {
            let err = sweep(args).err().unwrap_or_else(|| panic!("{args:?} should not parse"));
            for needle in *needles {
                assert!(err.contains(needle), "{args:?}: `{err}` misses `{needle}`");
            }
        }
        // A surplus parameter is refused quoting the row's own syntax
        // (`want tree[:m=…]`, `want tail:<count>`, `want all`, `want random:…`).
        for (family, token) in [
            (&TOPO, "tree:2:5:3"),
            (&PATTERN, "tail:3:9"),
            (&PATTERN, "all:1"),
            (&PATTERN, "random:0.5:1:extra"),
        ] {
            let syntax = family.resolve(token).unwrap();
            assert_eq!(
                sweep(&[family.flag, token]).err(),
                Some(format!("too many parameters in `{token}` (want {syntax})"))
            );
        }
        // The table cap's accepted side: 4 096 hosts × 4 096 words.
        assert!(sweep(&["--topo", "torus2d:64", "--proto", "counting-network:4096"]).is_ok());
        // The edge cap's two sides: 67,100,320 edges parse, 67,111,905 do not.
        assert_eq!(topo("complete:11585"), Ok(TopoSpec::Complete { n: 11585 }));
        assert!(topo("complete:11586").unwrap_err().contains("`complete:11586`"));
    }

    #[test]
    fn aliases_parse_to_their_canonical_values() {
        assert_eq!(arrival("batch"), arrival("oneshot"));
        assert_eq!(arrival("zipf:rate=0.3:s=2:seed=9"), arrival("hotspot:rate=0.3:s=2:seed=9"));
        assert_eq!(shards("3:contiguous"), shards("3:contig"));
        assert_eq!(shards("3:contiguous"), shards("3"));
        assert_eq!(shards("3:striped:ferry=2"), shards("3:stripe:ferry=2"));
    }

    /// One token per table row that fills every part its syntax spells,
    /// optional ones included: help cannot show a form the parser refuses,
    /// and a row added without a parser arm fails here.
    #[test]
    fn every_table_row_parses_as_its_syntax_spells_it() {
        let examples: [&[&str]; 10] = [
            &[
                "complete:12",
                "list:9",
                "mesh2d:3",
                "mesh3d:2",
                "hypercube:3",
                "tree:3:2",
                "star:7",
                "caterpillar:4:3",
                "figure1",
                "torus2d:5",
                "random-regular:10:3:7",
            ],
            &["arrow", "toggle-tree:8", "all", "queuing", "counting", "relaxed"],
            &["all", "random:0.5:3", "tail:4"],
            &[
                "oneshot",
                "poisson:rate=0.5:seed=3",
                "bursty:rate=0.5:on=2:off=3:seed=4",
                "hotspot:rate=0.5:s=1.5:seed=5",
            ],
            &["unit", "fixed:d=2", "perlink:max=3:seed=4", "jitter:max=3:seed=4"],
            &[
                "open",
                "droptail:bound=4",
                "delayretry:bound=4:backoff=2",
                "adaptive:target=4:gain=2",
                "pernode:bound=4:protect=1",
            ],
            &["uniform", "split:frac=0.5:seed=3"],
            &["crash:at=2:node=1:recover=5"],
            &["2:stripe:ferry=3"],
            &["2:contig", "2:stripe", "2:edgecut"],
        ];
        for (family, tokens) in GRAMMAR.iter().zip(examples) {
            assert_eq!(family.forms.len(), tokens.len(), "{}: one example per row", family.title);
            for ((syntax, _), token) in family.forms.iter().zip(tokens) {
                // The strategy rows spell one part of a `--shards` token.
                let own = if std::ptr::eq(*family, &STRATEGY) { &token[2..] } else { token };
                let shape = syntax.replace(['[', ']'], "");
                let (spelt, given): (Vec<&str>, Vec<&str>) =
                    (shape.split(':').collect(), own.split(':').collect());
                assert_eq!(spelt.len(), given.len(), "`{token}` fills every part of {shape}");
                // Rows led by a placeholder (`name`, `k`) have no keyword.
                if !(syntax.starts_with("name") || std::ptr::eq(*family, &SHARDS)) {
                    assert_eq!(given[0], head(syntax), "`{token}` leads with the row's head");
                }
                // A key=value form repeats each key the syntax spells (a
                // topology's `name=default` parts are positional).
                for (s, g) in spelt.iter().zip(&given) {
                    if let (Some((key, _)), Some((given_key, _))) =
                        (s.split_once('='), g.split_once('='))
                    {
                        assert_eq!(key, given_key, "`{token}` vs {shape}");
                    }
                }
                if let Err(e) = sweep(&[family.flag, token]) {
                    panic!("{} {token} (row {syntax}): {e}", family.flag);
                }
            }
        }
    }

    #[test]
    fn every_scalar_flag_parses_as_help_spells_it() {
        let examples: [&[&str]; 12] = [
            &["--modes", "strict,expanded"],
            &["--parallel-apply"],
            &["--wavefront:lag=3"],
            &["--timing"],
            &["--checkpoint-every", "8"],
            &["--node-hashes"],
            &["--perturb", "2:4"],
            &["--qqc", "max,mean,p50,p95,p99"],
            &["--repeats", "3"],
            &["--seed", "7"],
            &["--json", "-"],
            &["--pretty"],
        ];
        for ((syntax, _), args) in FLAGS.iter().zip(examples) {
            let flag = syntax.split([' ', '[']).next().unwrap();
            assert!(args[0].starts_with(flag), "{args:?} is not an example of `{syntax}`");
            if let Err(e) = sweep(args) {
                panic!("{args:?}: {e}");
            }
        }
        assert!(sweep(&["--modes", "paper"]).is_ok() && sweep(&["--wavefront"]).is_ok());
    }

    /// The largest cadence is a cadence like any other: round 0 is
    /// checkpointed, as under `1000000`.
    #[test]
    fn a_checkpoint_every_of_round_max_checkpoints_round_zero() {
        for every in ["1000000", "18446744073709551615"] {
            let argv = ["--topo", "list:4", "--proto", "arrow", "--checkpoint-every", every];
            for case in sweep(&argv).unwrap().plan.execute().cases {
                let rounds: Vec<u64> = case.checkpoints.unwrap().iter().map(|c| c.round).collect();
                assert_eq!(rounds, [0], "--checkpoint-every {every}");
            }
        }
    }

    /// A perturbation at the largest round still names its node, which is
    /// checked against the topology, as at any other round.
    #[test]
    fn a_perturbation_at_round_max_still_checks_its_node() {
        for at in ["5", "18446744073709551615"] {
            let perturb = format!("{at}:99");
            let argv = ["--topo", "list:4", "--proto", "arrow", "--perturb", &perturb];
            for case in sweep(&argv).unwrap().plan.execute().cases {
                let error = case.error.unwrap_or_default();
                assert!(error.contains("names node 99"), "--perturb {perturb}: {error}");
            }
        }
    }

    #[test]
    fn the_last_checkpoint_interval_wins_and_is_reported() {
        assert_eq!(sweep::<&str>(&[]).unwrap().checkpoint_every, 0);
        let twice = sweep(&["--checkpoint-every", "8", "--checkpoint-every", "2"]).unwrap();
        assert_eq!(twice.checkpoint_every, 2);
    }
}
