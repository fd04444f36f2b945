//! `egocensus` — command-line front end for ego-centric pattern census.
//!
//! ```text
//! egocensus generate --model ba --nodes 10000 --param 5 --labels 4 --seed 1 -o g.txt
//! egocensus stats g.txt
//! egocensus analyze g.txt
//! egocensus match g.txt --pattern 'PATTERN t { ?A-?B; ?B-?C; ?A-?C; }' [--matcher gql]
//! egocensus query g.txt --define 'PATTERN t { ... }' \
//!     'SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 2 DESC LIMIT 10' [--csv]
//! egocensus topk g.txt --pattern 'PATTERN t { ... }' --k 2 --top 10
//! egocensus mutate g.txt --apply 'INSERT EDGE (4, 6); DELETE EDGE (0, 1)' \
//!     --pattern 'PATTERN t { ... }' --k 2 --verify -o g2.txt
//! egocensus serve g.txt --addr 127.0.0.1:7878 --threads 4 --cache-mb 64
//! egocensus client --addr 127.0.0.1:7878 \
//!     'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes LIMIT 10'
//! ```

use egocensus::census::{
    exec_matches, run_census_exec, topk, Algorithm, CensusSpec, ExecConfig, PtConfig,
};
use egocensus::datagen;
use egocensus::dynamic::{update_batch_on, DeltaGraph};
use egocensus::graph::{io, stats, Graph, NodeId};
use egocensus::matcher::{cn, find_embeddings_with_stats, MatchList, MatchStats, MatcherKind};
use egocensus::pattern::Pattern;
use egocensus::query::{parse_mutations, Catalog, GraphStats, MutationKind, QueryEngine, Table};
use egocensus::server::{Client, Response, Server, ServerConfig};
use egocensus::shard::{Router, RouterConfig, ShardSpec, WorkerFleet};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "convert" => cmd_convert(rest),
        "stats" => cmd_stats(rest),
        "analyze" => cmd_analyze(rest),
        "match" => cmd_match(rest),
        "query" => cmd_query(rest),
        "materialize" => cmd_materialize(rest),
        "topk" => cmd_topk(rest),
        "mutate" => cmd_mutate(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown subcommand `{other}`"))
        }
    }
}

fn print_usage() {
    eprintln!(
        "egocensus — ego-centric graph pattern census

USAGE:
  egocensus generate --model <ba|er|ws> --nodes <N> [--param <M>] [--labels <L>]
                     [--seed <S>] -o <file>
  egocensus convert <graph-file> -o <file> [--force]
  egocensus stats <graph-file>
  egocensus analyze <graph-file>
  egocensus match <graph-file> --pattern <DSL> [--matcher <cn|gql>] [--threads <T>]
                  [--stats]
  egocensus query <graph-file> [--define <DSL>]... [--algorithm <name>]
                  [--threads <T>] [--csv] <SQL>
  egocensus materialize <graph-file> [--define <DSL>]... [--algorithm <name>]
                        [--threads <T>] '<MATERIALIZE ... | DROP VIEW ...>'
  egocensus topk <graph-file> --pattern <DSL> --k <radius> [--top <n>]
                 [--subpattern <name>] [--threads <T>]
  egocensus mutate <graph-file> --apply <script> [-o <file>]
                   [--pattern <DSL> --k <radius>] [--algorithm <name>]
                   [--threads <T>] [--verify]
  egocensus serve <graph-file> [--addr <host:port>] [--threads <pool>]
                  [--exec-threads <T>] [--cache-mb <MB>] [--seed <S>]
                  [--algorithm <name>] [--shard-of <M/N>] [--define <DSL>]...
                  [--view-budget-mb <MB>] [--views <file|off>]
                  [--workers <N> | --attach <host:port,...>]
  egocensus client [--addr <host:port>] [--define <DSL>]... [--update <script>]
                   [--materialize <stmt>]... [--drop-view <stmt>]...
                   [--subscribe <SQL> [--watch <secs>]]
                   [--analyze] [--stats] [--shutdown] [--csv] [<SQL>]

Graph files: `.egb` selects the binary CSR format (opened read-only via
mmap: O(1) load, physical pages shared between processes); any other
extension is the v1 text format or a SNAP-style edge list. `convert`
translates between them by extension and verifies the written graph.
Algorithms: auto (default), nd-bas, nd-pivot, nd-diff, pt-bas, pt-rnd, pt-opt.
Threads: 0 = all hardware threads (the default); results are identical
for every thread count.
Analyze: profiles the graph (degree/label/clustering statistics) and
persists the snapshot to `<graph-file>.stats`; the cost-based query
planner (see `EXPLAIN`) then picks census algorithms from measured
numbers instead of its structural heuristic. `query` and `serve` adopt
the sidecar automatically and detect staleness by graph fingerprint.
The `ANALYZE` SQL statement (and `client --analyze`) does the same
in-engine and server-side respectively.
Materialize: runs a `MATERIALIZE <pattern> RADIUS <k> [SUBPATTERN <sp>]
[MATCHES]` (or `DROP VIEW <pattern> RADIUS <k>`) statement against the
graph and persists the pinned count vector to the `<graph-file>.views`
sidecar; a later `query`, `materialize`, or `serve` on the same graph
adopts it, and COUNTP/COUNTSP over the pattern become pure lookups
(EXPLAIN shows `view:` provenance). Server-side, `client --materialize`
does the same through the `materialize` op, kept fresh across `update`s
by the incremental engine. `serve --views off` keeps views in memory
only; `--view-budget-mb` bounds the tier (largest views evicted first).
Mutate: applies an edge-mutation script (`INSERT EDGE (a, b); DELETE
EDGE (a, b); ...`) as a delta overlay; with --pattern it re-censuses
only the dirty focal nodes incrementally (--verify cross-checks against
a full recompute), and -o writes the compacted mutated graph.
Serve: loads the graph once, accepts concurrent clients over a
line-delimited JSON protocol, and memoizes repeated census queries in an
LRU result cache (--cache-mb 0 disables). --threads bounds concurrent
connections; --exec-threads parallelizes each census internally. The
`update` op (client --update) applies a mutation script server-side,
swapping the shared graph and invalidating the caches. `client
--subscribe SQL` registers a standing query and then prints the changed
rows (focal, column, old, new) the server pushes after each update,
watching for --watch seconds (default 30) before unsubscribing.
Sharding: --workers N spawns N worker subprocesses over the same graph
file (mmap'd .egb files share one physical copy) behind a scatter/gather
router; --attach fronts already-running workers instead. Responses are
byte-identical to a single server. --shard-of M/N makes a standalone
server answer only the M-th of N contiguous focal node-ID ranges."
    );
}

/// Minimal flag parser: returns (flag values, positionals).
struct Flags {
    values: Vec<(String, String)>,
    bools: Vec<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String], bool_flags: &[&str]) -> Result<Flags, String> {
    let mut values = Vec::new();
    let mut bools = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if bool_flags.contains(&name) {
                bools.push(name.to_string());
                i += 1;
            } else {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                values.push((name.to_string(), v.clone()));
                i += 2;
            }
        } else if a == "-o" {
            let v = args.get(i + 1).ok_or("-o needs a value")?;
            values.push(("out".to_string(), v.clone()));
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok(Flags {
        values,
        bools,
        positional,
    })
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }
}

/// Load a graph, picking the storage backend by extension: `.egb` maps
/// the binary CSR read-only; anything else auto-detects the v1 text
/// format (first non-comment line is a `graph ...` header) or a plain
/// SNAP-style edge list (`src dst` pairs; loaded as undirected).
fn load_graph(path: &str) -> Result<Graph, String> {
    io::load_path(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    Ok(match name {
        "auto" => Algorithm::Auto,
        "nd-bas" => Algorithm::NdBaseline,
        "nd-pivot" => Algorithm::NdPivot,
        "nd-diff" => Algorithm::NdDiff,
        "pt-bas" => Algorithm::PtBaseline,
        "pt-rnd" => Algorithm::PtRandom,
        "pt-opt" => Algorithm::PtOpt,
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &[])?;
    let model = f.get("model").unwrap_or("ba");
    let nodes: usize = f.parse("nodes", 10_000)?;
    let seed: u64 = f.parse("seed", 42)?;
    let labels: u16 = f.parse("labels", 0)?;
    let out = f.get("out").ok_or("missing -o <file>")?;

    let mut rng = datagen::rng(seed);
    let g = match model {
        "ba" => {
            let m: usize = f.parse("param", 5)?;
            datagen::barabasi_albert(nodes, m, &mut rng)
        }
        "er" => {
            let m: usize = f.parse("param", nodes * 5)?;
            datagen::erdos_renyi_gnm(nodes, m, &mut rng)
        }
        "ws" => {
            let k: usize = f.parse("param", 4)?;
            datagen::watts_strogatz(nodes, k, 0.1, &mut rng)
        }
        other => return Err(format!("unknown model `{other}` (ba, er, ws)")),
    };
    let g = if labels > 0 {
        datagen::assign_random_labels(&g, labels, &mut rng)
    } else {
        g
    };
    io::save_path(&g, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} nodes / {} edges ({} labels) to {out}",
        g.num_nodes(),
        g.num_edges(),
        g.num_labels()
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &["force"])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let out = f.get("out").ok_or("missing -o <file>")?;
    // Refuse to clobber an existing graph: the write below truncates
    // before the source is even validated, so a typo'd -o would destroy
    // data. --force opts back in.
    if std::path::Path::new(out).exists() && !f.has("force") {
        return Err(format!(
            "{out} already exists; pass --force to overwrite it"
        ));
    }
    let g = load_graph(path)?;
    io::save_path(&g, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    // Re-open what we just wrote and prove it is the same graph: equal
    // structural fingerprint (checked against the actual adjacency, not
    // the stored header field) and equal counts.
    let back = load_graph(out)?;
    if !back.verify_fingerprint() {
        return Err(format!("{out}: stored fingerprint does not match contents"));
    }
    if back.fingerprint() != g.fingerprint()
        || back.num_nodes() != g.num_nodes()
        || back.num_edges() != g.num_edges()
        || back.is_directed() != g.is_directed()
    {
        return Err(format!("{out}: converted graph differs from source"));
    }
    println!(
        "converted {path} -> {out} ({} nodes / {} edges, {} storage, fingerprint {:016x} verified)",
        back.num_nodes(),
        back.num_edges(),
        back.storage_kind(),
        back.fingerprint(),
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &[])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    println!("nodes:       {}", g.num_nodes());
    println!("edges:       {}", g.num_edges());
    println!("directed:    {}", g.is_directed());
    println!("storage:     {}", g.storage_kind());
    println!("labels:      {}", g.num_labels());
    println!("max degree:  {}", g.max_degree());
    println!("components:  {}", stats::connected_components(&g));
    println!("triangles:   {}", stats::total_triangles(&g));
    println!("avg clustering: {:.4}", stats::average_clustering(&g));
    println!("assortativity:  {:.4}", stats::degree_assortativity(&g));
    println!("diameter >=: {}", stats::diameter_lower_bound(&g, 4));
    Ok(())
}

/// `analyze <graph-file>`: profile the graph for the cost-based query
/// planner and persist the snapshot next to the graph. Reports whether
/// an existing sidecar was fresh, stale (fingerprint mismatch — e.g.
/// the graph file was regenerated), or absent.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &[])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let engine = QueryEngine::open(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let sidecar = engine
        .stats_path()
        .expect("open always derives the sidecar path")
        .to_path_buf();
    let fingerprint = engine.graph().fingerprint();
    match engine.graph_stats() {
        Some(prev) if prev.is_stale(fingerprint) => println!(
            "sidecar {} is stale (profiled {:016x}, graph is {:016x}); re-profiling",
            sidecar.display(),
            prev.fingerprint,
            fingerprint
        ),
        Some(_) => println!("sidecar {} is current; re-profiling", sidecar.display()),
        None => println!("no sidecar yet; profiling {path}"),
    }
    let table = engine.analyze().map_err(|e| e.to_string())?;
    print!("{table}");
    println!("wrote {}", sidecar.display());
    Ok(())
}

fn cmd_match(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &["stats"])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let pattern_text = f.get("pattern").ok_or("missing --pattern <DSL>")?;
    let g = load_graph(path)?;
    let p = Pattern::parse(pattern_text).map_err(|e| e.to_string())?;
    let kind = match f.get("matcher").unwrap_or("cn") {
        "cn" => MatcherKind::CandidateNeighbors,
        "gql" => MatcherKind::GqlStyle,
        other => return Err(format!("unknown matcher `{other}` (cn, gql)")),
    };
    let threads = ExecConfig::with_threads(f.parse("threads", 0usize)?).resolve();
    let want_stats = f.has("stats");
    let start = std::time::Instant::now();
    // Only the CN matcher splits over threads; GQL runs sequentially
    // regardless of --threads.
    let mut mstats = MatchStats::default();
    let embs = match kind {
        MatcherKind::CandidateNeighbors => cn::enumerate(&g, &p, &mut mstats, threads),
        _ => find_embeddings_with_stats(&g, &p, kind, &mut mstats),
    };
    let matches = MatchList::from_embeddings(&p, embs);
    println!(
        "{} distinct matches of `{}` in {:.3}s",
        matches.len(),
        p.name(),
        start.elapsed().as_secs_f64()
    );
    if want_stats {
        println!("  initial candidates:  {}", mstats.initial_candidates);
        println!("  after pruning:       {}", mstats.pruned_candidates);
        println!("  prune iterations:    {}", mstats.prune_iterations);
        println!(
            "  extension scans:     {}",
            mstats.extension_candidates_scanned
        );
        println!("  raw embeddings:      {}", mstats.raw_embeddings);
        println!(
            "  setops kernel:       {} (merge {}, gallop {}, bitset {}, saved allocs {})",
            egocensus::graph::setops::configured_kernel().name(),
            mstats.setops.merge_calls,
            mstats.setops.gallop_calls,
            mstats.setops.bitset_calls,
            mstats.setops.saved_allocs
        );
    }
    for m in matches.iter().take(10) {
        let nodes: Vec<String> = m.nodes.iter().map(|n| n.to_string()).collect();
        println!("  ({})", nodes.join(", "));
    }
    if matches.len() > 10 {
        println!("  ... and {} more", matches.len() - 10);
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &["csv"])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let sql = f
        .positional
        .get(1)
        .ok_or("missing SQL query (quote it as one argument)")?;
    // `open` (rather than a borrowed engine over `load_graph`) adopts
    // the graph's `.stats` sidecar, so a prior `egocensus analyze` (or
    // an `ANALYZE` statement, which re-persists it) feeds the planner.
    let mut engine =
        QueryEngine::open_with_builtins(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    for def in f.get_all("define") {
        // The one-shot CLI keeps replace semantics: a --define may
        // intentionally override a preloaded builtin.
        engine
            .catalog_mut()
            .define_or_replace(def)
            .map_err(|e| e.to_string())?;
    }
    if let Some(a) = f.get("algorithm") {
        engine.set_algorithm(parse_algorithm(a)?);
    }
    if let Some(seed) = f.get("seed") {
        engine.set_seed(seed.parse().map_err(|_| "bad --seed")?);
    }
    engine.set_threads(f.parse("threads", 0usize)?);
    let table = engine.execute(sql).map_err(|e| e.to_string())?;
    if f.has("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{table}");
        println!("({} rows)", table.num_rows());
    }
    Ok(())
}

/// `materialize <graph-file> '<stmt>'`: run a `MATERIALIZE` (or `DROP
/// VIEW`) statement against the graph offline. The engine adopts the
/// graph's `.views` sidecar on open and re-persists it after the
/// statement, so a later `query` or `serve` on the same file starts
/// with the view warm — the offline counterpart of `client
/// --materialize`, analogous to `analyze` priming the `.stats` sidecar.
fn cmd_materialize(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &[])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let stmt = f
        .positional
        .get(1)
        .ok_or("missing MATERIALIZE or DROP VIEW statement (quote it as one argument)")?;
    let mut engine =
        QueryEngine::open_with_builtins(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    for def in f.get_all("define") {
        engine
            .catalog_mut()
            .define_or_replace(def)
            .map_err(|e| e.to_string())?;
    }
    if let Some(a) = f.get("algorithm") {
        engine.set_algorithm(parse_algorithm(a)?);
    }
    engine.set_threads(f.parse("threads", 0usize)?);
    let table = engine.execute(stmt).map_err(|e| e.to_string())?;
    print!("{table}");
    if let Some(sidecar) = engine.views_path() {
        println!("wrote {}", sidecar.display());
    }
    Ok(())
}

fn cmd_topk(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &[])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let pattern_text = f.get("pattern").ok_or("missing --pattern <DSL>")?;
    let g = load_graph(path)?;
    let p = Pattern::parse(pattern_text).map_err(|e| e.to_string())?;
    let k: u32 = f.parse("k", 2)?;
    let top_n: usize = f.parse("top", 10)?;
    let mut spec = CensusSpec::single(&p, k);
    if let Some(sp) = f.get("subpattern") {
        spec = spec.with_subpattern(sp);
    }
    let threads = ExecConfig::with_threads(f.parse("threads", 0usize)?).resolve();
    let matches = exec_matches(&g, &p, threads);
    let res = topk::top_k_census(&g, &spec, &matches, top_n).map_err(|e| e.to_string())?;
    println!(
        "top {} of {} focal nodes (exactly evaluated: {}):",
        res.top.len(),
        g.num_nodes(),
        res.evaluated
    );
    for (node, count) in &res.top {
        println!("  node {node}: {count}");
    }
    Ok(())
}

fn cmd_mutate(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &["verify"])?;
    let path = f.positional.first().ok_or("missing graph file")?;
    let script = f.get("apply").ok_or("missing --apply '<script>'")?;
    let stmts = parse_mutations(script).map_err(|e| e.to_string())?;
    let base = Arc::new(load_graph(path)?);
    let mut delta = DeltaGraph::new(base.clone());
    let mut changed = 0usize;
    for stmt in &stmts {
        let (a, b) = (NodeId(stmt.a), NodeId(stmt.b));
        let did = match stmt.kind {
            MutationKind::InsertEdge => delta.insert_edge(a, b),
            MutationKind::DeleteEdge => delta.delete_edge(a, b),
        }
        .map_err(|e| e.to_string())?;
        if did {
            changed += 1;
        }
    }
    println!(
        "statements:   {} ({} changed the edge set)",
        stmts.len(),
        changed
    );
    println!("net inserted: {}", delta.added().count());
    println!("net deleted:  {}", delta.removed().count());
    println!(
        "edges:        {} -> {}",
        base.num_edges(),
        delta.num_edges()
    );
    let graph = delta.compact();
    println!(
        "fingerprint:  {:016x} -> {:016x}",
        base.fingerprint(),
        graph.fingerprint()
    );

    if let Some(pattern_text) = f.get("pattern") {
        let algorithm_name = f.get("algorithm").unwrap_or("auto");
        let algorithm = parse_algorithm(algorithm_name)?;
        let exec = ExecConfig::with_threads(f.parse("threads", 0usize)?);
        let config = PtConfig::default();
        let p = Pattern::parse(pattern_text).map_err(|e| e.to_string())?;
        let k: u32 = f.parse("k", 2)?;
        let spec = CensusSpec::single(&p, k);
        let t0 = std::time::Instant::now();
        let previous =
            run_census_exec(&base, &spec, algorithm, &config, &exec).map_err(|e| e.to_string())?;
        let full_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let update = update_batch_on(
            &delta,
            &graph,
            std::slice::from_ref(&spec),
            std::slice::from_ref(&previous),
            &[None],
            algorithm,
            &config,
            &exec,
        )
        .map_err(|e| e.to_string())?;
        let inc_time = t1.elapsed();
        println!("census `{}` (k={k}, {algorithm_name}):", p.name());
        println!(
            "  dirty focal:  {} of {} ({} reused from the previous run)",
            update.stats.dirty_focal,
            base.num_nodes(),
            update.stats.clean_focal
        );
        println!("  full census:  {:.3}s", full_time.as_secs_f64());
        println!("  incremental:  {:.3}s", inc_time.as_secs_f64());
        if f.has("verify") {
            let fresh = run_census_exec(&graph, &spec, algorithm, &config, &exec)
                .map_err(|e| e.to_string())?;
            if update.counts[0] != fresh {
                return Err("incremental counts diverge from full recompute".into());
            }
            println!("  verify:       incremental == full recompute");
        }
    }
    if let Some(out) = f.get("out") {
        io::save_path(&graph, out).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "wrote {} nodes / {} edges to {out}",
            graph.num_nodes(),
            graph.num_edges()
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &[])?;
    let path = f.positional.first().ok_or("missing graph file")?.clone();
    let addr = f.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let workers: usize = f.parse("workers", 0usize)?;
    if workers > 0 || f.get("attach").is_some() {
        if f.get("shard-of").is_some() {
            return Err("--shard-of configures a worker; it cannot combine with \
                        --workers/--attach (the router assigns shards per query)"
                .into());
        }
        return cmd_serve_router(&f, &path, &addr, workers);
    }
    let cache_mb: usize = f.parse("cache-mb", 64)?;
    let shard = match f.get("shard-of") {
        None => None,
        Some(text) => Some(ShardSpec::parse(text)?),
    };
    // Views persist to the graph's `.views` sidecar by default so a
    // restart is warm; `--views off` keeps the tier in memory only
    // (router-spawned workers run this way — per-shard views from N
    // workers would clobber one shared sidecar file).
    let views_path = match f.get("views") {
        Some("off") => None,
        Some(p) => Some(std::path::PathBuf::from(p)),
        None => Some(egocensus::query::ViewRegistry::sidecar_path(
            std::path::Path::new(&path),
        )),
    };
    let view_budget_mb: usize = f.parse(
        "view-budget-mb",
        egocensus::query::DEFAULT_VIEW_BUDGET >> 20,
    )?;
    let config = ServerConfig {
        pool_threads: f.parse("threads", 4usize)?,
        exec_threads: f.parse("exec-threads", 0usize)?,
        cache_bytes: cache_mb << 20,
        seed: f.parse("seed", 0xC0FFEEu64)?,
        shard,
        algorithm: parse_algorithm(f.get("algorithm").unwrap_or("auto"))?,
        stats_path: Some(GraphStats::sidecar_path(std::path::Path::new(&path))),
        views_path,
        view_budget_bytes: view_budget_mb << 20,
        ..ServerConfig::default()
    };
    let graph = Arc::new(load_graph(&path)?);
    let mut base = Catalog::with_builtins();
    for def in f.get_all("define") {
        base.define_or_replace(def).map_err(|e| e.to_string())?;
    }
    let server = Server::bind(&addr, graph, Arc::new(base), config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts parse this line to learn the ephemeral port; flush past
    // any pipe buffering before blocking in the accept loop.
    println!("listening on {local}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())?;
    println!("server stopped");
    Ok(())
}

/// `serve --workers N` / `serve --attach a,b`: a scatter/gather router
/// in front of a worker fleet. With `--workers` the fleet is spawned
/// here — one `egocensus serve` subprocess per worker, all mapping the
/// same graph file, each bound to an ephemeral port — and torn down
/// when the router stops. With `--attach` the router fronts workers
/// someone else started (e.g. on other machines sharing the file).
fn cmd_serve_router(f: &Flags, path: &str, addr: &str, workers: usize) -> Result<(), String> {
    let (fleet, worker_addrs) = match f.get("attach") {
        Some(list) => {
            let addrs = list
                .split(',')
                .map(|a| {
                    a.trim()
                        .parse::<std::net::SocketAddr>()
                        .map_err(|e| format!("bad --attach address `{a}`: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            (None, addrs)
        }
        None => {
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate the egocensus binary: {e}"))?;
            let fleet = WorkerFleet::spawn(workers, |_j| {
                let mut c = std::process::Command::new(&exe);
                c.arg("serve").arg(path).args(["--addr", "127.0.0.1:0"]);
                // Workers keep views in memory: each pins a different
                // focal shard of a view, and N workers persisting to the
                // graph's one shared `.views` sidecar would clobber it.
                c.args(["--views", "off"]);
                for flag in [
                    "threads",
                    "exec-threads",
                    "cache-mb",
                    "seed",
                    "algorithm",
                    "view-budget-mb",
                ] {
                    if let Some(v) = f.get(flag) {
                        c.arg(format!("--{flag}")).arg(v);
                    }
                }
                for def in f.get_all("define") {
                    c.arg("--define").arg(def);
                }
                c
            })
            .map_err(|e| e.to_string())?;
            for w in fleet.infos() {
                println!("worker {} listening on {} (pid {})", w.index, w.addr, w.pid);
            }
            let addrs = fleet.addrs();
            (Some(fleet), addrs)
        }
    };
    let router = Router::bind(addr, &worker_addrs, RouterConfig::default())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = router.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {local}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    router.run().map_err(|e| e.to_string())?;
    drop(fleet); // kill spawned workers before reporting the stop
    println!("server stopped");
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args, &["csv", "analyze", "stats", "shutdown"])?;
    let addr = f.get("addr").unwrap_or("127.0.0.1:7878");
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let print = |resp: Response| -> Result<(), String> {
        match resp {
            Response::Table(t) => {
                let mut table = Table::new(t.columns);
                for row in t.rows {
                    table.push_row(row);
                }
                if f.has("csv") {
                    print!("{}", table.to_csv());
                } else {
                    print!("{table}");
                    println!("({} rows)", table.num_rows());
                }
                Ok(())
            }
            Response::Error { message } => Err(format!("server error: {message}")),
            Response::Notify(_) => unreachable!("request() filters notify frames"),
        }
    };
    for def in f.get_all("define") {
        match client.define(def).map_err(|e| e.to_string())? {
            Response::Table(_) => {}
            Response::Error { message } => return Err(format!("server error: {message}")),
            Response::Notify(_) => unreachable!("request() filters notify frames"),
        }
    }
    for script in f.get_all("update") {
        print(client.update(script).map_err(|e| e.to_string())?)?;
    }
    // Materialize (and drop) before any query so `client --materialize
    // '...' 'SELECT ...'` probes the view it just pinned.
    for stmt in f.get_all("materialize") {
        print(client.materialize(stmt).map_err(|e| e.to_string())?)?;
    }
    for stmt in f.get_all("drop-view") {
        print(client.drop_view(stmt).map_err(|e| e.to_string())?)?;
    }
    // Analyze before any query so `--analyze 'EXPLAIN ...'` shows the
    // cost-model basis the fresh snapshot enables.
    if f.has("analyze") {
        print(client.analyze().map_err(|e| e.to_string())?)?;
    }
    if let Some(sql) = f.positional.first() {
        print(client.query(sql).map_err(|e| e.to_string())?)?;
    }
    if let Some(sql) = f.get("subscribe") {
        let watch_secs: u64 = f.parse("watch", 30u64)?;
        let ack = match client.subscribe(sql).map_err(|e| e.to_string())? {
            Response::Table(t) => t,
            Response::Error { message } => return Err(format!("server error: {message}")),
            Response::Notify(_) => unreachable!("request() filters notify frames"),
        };
        let id = ack.stat("subscription").ok_or("malformed subscribe ack")? as u64;
        print(Response::Table(ack))?;
        println!("watching for {watch_secs}s (updates push changed rows)...");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(watch_secs);
        while std::time::Instant::now() < deadline {
            let frame = client
                .poll_notification(std::time::Duration::from_millis(200))
                .map_err(|e| e.to_string())?;
            let Some(frame) = frame else { continue };
            println!(
                "notify subscription={} generation={}",
                frame.subscription, frame.generation
            );
            // Frame rows are [focal, column, old, new]; `frame.columns`
            // names the subscribed aggregates, not these display columns.
            let mut table =
                Table::new(["FOCAL", "COLUMN", "OLD", "NEW"].map(String::from).to_vec());
            for row in frame.rows {
                table.push_row(row);
            }
            if f.has("csv") {
                print!("{}", table.to_csv());
            } else {
                print!("{table}");
                println!("({} rows)", table.num_rows());
            }
            std::io::stdout().flush().ok();
        }
        client.unsubscribe(id).map_err(|e| e.to_string())?;
    }
    if f.has("stats") {
        print(Response::Table(client.stats().map_err(|e| e.to_string())?))?;
    }
    if f.has("shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("shutdown requested");
    }
    Ok(())
}
