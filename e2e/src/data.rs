//! The workloads: which generator, at what size, admitted in what batches.

use crate::stream::{hold_out, Batch, HoldOut};
use dcer_core::DcerSession;
use dcer_datagen::{tfacc, tpch};
use dcer_relation::{csv, Dataset, RelId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Share of every churned relation held out of the initial load.
pub const HOLD_OUT: f64 = 0.2;

#[derive(Clone, Copy)]
pub enum Source {
    /// `tpch::generate` at this scale factor (SF 1 is about 30k tuples).
    Tpch(f64),
    /// `tfacc::generate` with this many vehicles.
    Tfacc(usize),
}

/// One workload of BENCHMARK.json.
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    /// The seed of the generator and of the hold-out, pinned: how hard the
    /// initial load is depends on both in steps. Whether `country_sim`
    /// catches each of TPCH's three typo'd nations decides a third of all
    /// downstream matches, and one hold-out in three makes HyPart replicate
    /// 3.3 to 3.4 times where the others give 3.1, with a fifth more
    /// valuations. Those are properties of the data, not of the program.
    /// `--seed` picks the stream: the replay order and the deletes.
    pub data_seed: u64,
    /// What one admitted batch holds.
    pub batch: Batch,
    /// Batches admitted per round, sized to take about as long as the
    /// round's cold resolve.
    pub round_batches: usize,
    /// Relations the reader draws its lookups from.
    pub probe_rels: &'static [&'static str],
    /// The ML predicate `ml.pair_ns` times: model, relation, compared
    /// attribute, and the attribute whose equality blocks the pairs.
    pub ml_probe: (&'static str, &'static str, &'static str, &'static str),
}

/// Sizes come from the probe recorded in `README.md`: with a fifth held out,
/// TPCH at scale 5.5 loads about 105k tuples; TFACC is sized by time, since
/// its cost is quadratic in the `model` block size.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "serve_mixed",
        source: Source::Tpch(5.5),
        data_seed: 1,
        batch: Batch::Bulk(500),
        round_batches: 5,
        probe_rels: &["customer", "orders", "part"],
        ml_probe: ("desc_sim", "part", "pdesc", "brand"),
    },
    Spec {
        name: "cdc_trickle",
        source: Source::Tpch(5.5),
        data_seed: 1,
        batch: Batch::Trickle,
        round_batches: 2,
        probe_rels: &["customer", "orders", "part"],
        ml_probe: ("desc_sim", "part", "pdesc", "brand"),
    },
    Spec {
        name: "tfacc_mixed",
        source: Source::Tfacc(10_000),
        data_seed: 23,
        batch: Batch::Bulk(500),
        round_batches: 2,
        probe_rels: &["vehicle", "test"],
        ml_probe: ("plate_sim", "vehicle", "plate", "model"),
    },
];

impl Spec {
    /// Generate the dataset at `1 / shrink` of its size and split it.
    pub fn generate(&self, shrink: f64) -> HoldOut {
        let (full, truth) = match self.source {
            Source::Tpch(scale) => tpch::generate(&tpch::TpchConfig {
                scale: scale / shrink,
                dup: 0.3,
                seed: self.data_seed,
            }),
            Source::Tfacc(vehicles) => tfacc::generate(&tfacc::TfaccConfig {
                vehicles: (vehicles as f64 / shrink) as usize,
                dup: 0.3,
                seed: self.data_seed,
            }),
        };
        hold_out(&full, truth, HOLD_OUT, self.data_seed)
    }

    pub fn session(&self) -> DcerSession {
        match self.source {
            Source::Tpch(_) => DcerSession::from_source(
                tpch::catalog(),
                tpch::rules_source(),
                tpch::make_registry(),
            ),
            Source::Tfacc(_) => DcerSession::from_source(
                tfacc::catalog(),
                tfacc::rules_source(),
                tfacc::make_registry(),
            ),
        }
        .expect("the generators' own rules parse")
    }
}

fn csv_path(dir: &Path, dataset: &Dataset, rel: RelId) -> PathBuf {
    dir.join(format!("{}.csv", dataset.catalog().schema(rel).name))
}

/// Write one CSV file per relation into `dir`. Returns the bytes written.
pub fn dump_csv(dataset: &Dataset, dir: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut bytes = 0;
    for relation in dataset.relations() {
        let path = csv_path(dir, dataset, relation.rel_id());
        let mut w = BufWriter::new(File::create(&path)?);
        csv::dump_to(dataset, relation.rel_id(), &mut w)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        w.flush()?;
        bytes += std::fs::metadata(&path)?.len();
    }
    Ok(bytes)
}

/// Load every relation of `session`'s catalog from the CSV files in `dir`.
pub fn load_csv(session: &DcerSession, dir: &Path) -> Dataset {
    let mut dataset = Dataset::new(session.catalog().clone());
    for rel in 0..session.catalog().len() as RelId {
        let file = File::open(csv_path(dir, &dataset, rel)).expect("dumped by set-up");
        csv::load_reader(&mut dataset, rel, &mut BufReader::new(file)).expect("own dump parses");
    }
    dataset
}
