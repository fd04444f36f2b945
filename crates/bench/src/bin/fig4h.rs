//! Figure 4(h): link prediction over DBLP-style co-authorship, plus the
//! Section V-B runtime comparison of pairwise census algorithms.
//!
//! Paper setting: SIGMOD/VLDB/ICDE 2001–2005 predicts 2006–2010
//! collaborations; nine census measures vs Jaccard vs random, precision
//! @50 and @600. Runtimes: ND-BAS poorest by orders of magnitude; PT-OPT
//! 0.9x–3.4x PT-BAS depending on pattern/radius.
//!
//! ```sh
//! cargo run --release -p ego-bench --bin fig4h [-- --scale paper]
//! ```

use ego_bench::{fmt_secs, header, row, timed, Scale};
use ego_census::{run, Algorithm, Census, Job, PairCensusSpec, PairCounts, PairSelector};
use ego_datagen::dblp::{self, DblpConfig};
use ego_datagen::rng;
use ego_linkpred::measures::{candidate_pairs, CensusMeasure, MeasureKind};
use ego_linkpred::{run_experiment, ExperimentConfig};

fn main() {
    let scale = Scale::from_args();
    let cfg = match scale {
        Scale::Quick => DblpConfig {
            num_authors: 800,
            num_communities: 12,
            papers_per_year: 130,
            ..Default::default()
        },
        // The paper's DBLP slice has ~8K authors from three venues.
        Scale::Paper => DblpConfig {
            num_authors: 8_000,
            num_communities: 120,
            papers_per_year: 1_300,
            ..Default::default()
        },
    };
    let data = dblp::generate(&cfg, &mut rng(2001));
    println!(
        "# Figure 4(h): link prediction ({} authors, {} train edges, {} new test edges)\n",
        data.train.num_nodes(),
        data.train.num_edges(),
        data.test_new_edges.len()
    );

    let results = run_experiment(
        &data,
        &ExperimentConfig {
            ks: vec![50, 600],
            seed: 7,
        },
    );
    header(&["predictor", "P@50", "P@600"]);
    for m in &results.measures {
        row(&[
            m.name.clone(),
            format!("{:.3}", m.precision[0].1),
            format!("{:.3}", m.precision[1].1),
        ]);
    }

    // Runtime comparison on the pairwise queries (ND-BAS vs PT-BAS vs
    // PT-OPT), one radius sweep per structure — the paper's closing
    // runtime note. ND-BAS is run on radius 1 only (it is orders of
    // magnitude slower, exactly as reported).
    println!("\n## Pairwise census runtimes (candidate pairs per measure)\n");
    header(&[
        "measure",
        "pairs",
        "ND-PVOT",
        "PT-BAS",
        "PT-OPT",
        "PT-OPT/PT-BAS",
    ]);
    let g = &data.train;
    for kind in [MeasureKind::Node, MeasureKind::Edge, MeasureKind::Triangle] {
        for r in 1..=3u32 {
            let m = CensusMeasure { kind, r };
            let pattern = kind.pattern();
            let pairs = candidate_pairs(g, r);
            let selector = PairSelector::Pairs(pairs.clone());
            let spec = PairCensusSpec::intersection(&pattern, r, selector);

            let (res_nd, t_nd) = pair_census(g, &spec, Algorithm::NdPivot);
            let (res_ptb, t_ptb) = pair_census(g, &spec, Algorithm::PtBaseline);
            let (res_pto, t_pto) = pair_census(g, &spec, Algorithm::PtOpt);
            // Spot-check agreement on a few pairs.
            for &(a, b) in pairs.iter().take(50) {
                assert_eq!(res_nd.get(a, b), res_ptb.get(a, b), "{} r={r}", kind.name());
                assert_eq!(res_nd.get(a, b), res_pto.get(a, b), "{} r={r}", kind.name());
            }
            row(&[
                m.name(),
                pairs.len().to_string(),
                fmt_secs(t_nd),
                fmt_secs(t_ptb),
                fmt_secs(t_pto),
                format!("{:.2}x", t_ptb / t_pto.max(1e-9)),
            ]);
        }
    }
    println!("\nND-BAS (radius 1 only; per-pair subgraph extraction):");
    let pattern = MeasureKind::Node.pattern();
    let pairs = candidate_pairs(g, 1);
    let spec = PairCensusSpec::intersection(&pattern, 1, PairSelector::Pairs(pairs));
    let (_, t_bas) = pair_census(g, &spec, Algorithm::NdBaseline);
    println!("  nodes@1: {}", fmt_secs(t_bas));
}

/// Time one pairwise census.
fn pair_census(
    g: &ego_graph::Graph,
    spec: &PairCensusSpec<'_>,
    algorithm: Algorithm,
) -> (PairCounts, f64) {
    let job = Job::new(Census::Pair(spec), algorithm);
    timed(|| run(g, &job).unwrap().pairs)
}
