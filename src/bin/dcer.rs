//! `dcer` — command-line deep and collective entity resolution.
//!
//! ```sh
//! # Resolve: schema + CSVs + rules, sequential or parallel.
//! dcer match --schema schema.txt --data Customers=c.csv --data Orders=o.csv \
//!      --rules rules.mrl --workers 8 --output matches.csv
//!
//! # Mine bi-variable rules from a relation with labeled duplicates.
//! dcer discover --schema schema.txt --data song=songs.csv --relation song \
//!      --labels dup_pairs.csv --min-support 10 --min-confidence 0.97
//! ```
//!
//! The schema file declares one relation per line:
//! `Customers(cno: str, name: str, phone: str, addr: str)`.
//! Rules use the MRL syntax of [`dcer::mrl::parse_rules`]. ML predicates
//! are bound to built-in classifiers by naming convention:
//! `<kind>_<threshold-percent>` — e.g. `ngram_60`, `jw_88`, `lev_70`,
//! `monge_80`, `emb_50`, `exact_0`.

use dcer::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcer: {e}");
            ExitCode::from(2)
        }
    }
}

struct Cli {
    flags: HashMap<String, Vec<String>>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut flags: HashMap<String, Vec<String>> = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if name == "sequential" {
                    flags.entry(name.to_string()).or_default().push("true".into());
                } else {
                    i += 1;
                    let v =
                        args.get(i).ok_or_else(|| format!("flag --{name} needs a value"))?.clone();
                    flags.entry(name.to_string()).or_default().push(v);
                }
            } else {
                return Err(format!("unexpected argument `{a}`"));
            }
            i += 1;
        }
        Ok(Cli { flags })
    }

    fn one(&self, name: &str) -> Result<&str, String> {
        let vs = self.flags.get(name).ok_or_else(|| format!("missing --{name}"))?;
        if vs.len() != 1 {
            return Err(format!("--{name} given {} times, expected once", vs.len()));
        }
        Ok(&vs[0])
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.first()).map(String::as_str)
    }

    fn many(&self, name: &str) -> &[String] {
        self.flags.get(name).map_or(&[], Vec::as_slice)
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let cli = Cli::parse(rest).map_err(|e| format!("{e}\n{}", usage()))?;
    match cmd.as_str() {
        "match" => cmd_match(&cli),
        "discover" => cmd_discover(&cli),
        "check" => cmd_check(&cli),
        "serve" => cmd_serve(&cli),
        "--help" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     dcer match    --schema F --data REL=CSV... --rules F [--workers N] \
     [--sequential] [--output F]\n  \
     dcer check    --schema F --rules F\n  \
     dcer discover --schema F --data REL=CSV --relation R --labels CSV \
     [--min-support N] [--min-confidence P] [--max-preds N]\n  \
     dcer serve    --schema F --data REL=CSV... --rules F [--workers N] \
     [--tenant NAME]  (newline-delimited JSON requests on stdin)"
        .to_string()
}

/// Parse and validate a `--workers` value (the partitioner asserts on 0,
/// so reject it here with a usage error instead).
fn parse_workers(raw: &str) -> Result<usize, String> {
    let n: usize = raw.parse().map_err(|_| format!("--workers must be a number, got `{raw}`"))?;
    if n == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    Ok(n)
}

/// Parse the schema file: one `Name(attr: type, ...)` per line.
fn load_schema(path: &str) -> Result<Arc<Catalog>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut schemas = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("{path}:{}: {m}", lineno + 1);
        let open = line.find('(').ok_or_else(|| err("expected `Name(...)`"))?;
        let close = line.rfind(')').ok_or_else(|| err("missing `)`"))?;
        if close < open {
            return Err(err("malformed declaration: `)` before `(`"));
        }
        let name = line[..open].trim();
        if name.is_empty() {
            return Err(err("missing relation name before `(`"));
        }
        let mut attrs = Vec::new();
        for field in line[open + 1..close].split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (aname, ty) = field
                .split_once(':')
                .ok_or_else(|| err(&format!("attribute `{field}` needs `name: type`")))?;
            let ty = ValueType::parse(ty.trim())
                .ok_or_else(|| err(&format!("unknown type `{}`", ty.trim())))?;
            attrs.push((aname.trim().to_string(), ty));
        }
        let attr_refs: Vec<(&str, ValueType)> =
            attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        schemas.push(dcer::relation::RelationSchema::of(name, &attr_refs));
    }
    Catalog::from_schemas(schemas).map(Arc::new).map_err(|e| e.to_string())
}

/// Load `--data REL=FILE.csv` pairs into a dataset.
fn load_data(catalog: &Arc<Catalog>, specs: &[String]) -> Result<Dataset, String> {
    let mut data = Dataset::new(catalog.clone());
    for spec in specs {
        let (rel_name, path) =
            spec.split_once('=').ok_or_else(|| format!("--data must be REL=FILE, got `{spec}`"))?;
        let rel = catalog.rel(rel_name).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n = dcer::relation::csv::load_into(&mut data, rel, &text)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loaded {n} tuples into {rel_name}");
    }
    Ok(data)
}

/// Bind ML predicate names of the form `<kind>_<percent>` to classifiers.
fn registry_for(rules: &dcer::mrl::RuleSet) -> Result<MlRegistry, String> {
    use dcer::ml::*;
    let mut reg = MlRegistry::new();
    for name in rules.model_names() {
        let (kind, pct) = name
            .rsplit_once('_')
            .ok_or_else(|| format!("ML model `{name}`: expected `<kind>_<percent>`"))?;
        let t: f64 = pct
            .parse::<u32>()
            .map(|p| p as f64 / 100.0)
            .map_err(|_| format!("ML model `{name}`: bad threshold `{pct}`"))?;
        let model: Arc<dyn MlModel> = match kind {
            "ngram" => Arc::new(NgramCosineClassifier::new(t)),
            "jw" => Arc::new(JaroWinklerClassifier::new(t)),
            "lev" => Arc::new(LevenshteinClassifier::new(t)),
            "monge" => Arc::new(MongeElkanClassifier::new(t)),
            "emb" => Arc::new(EmbeddingCosineClassifier::new(t)),
            "exact" => Arc::new(EqualTextClassifier),
            other => {
                return Err(format!(
                    "ML model `{name}`: unknown kind `{other}` \
                     (ngram|jw|lev|monge|emb|exact)"
                ))
            }
        };
        reg.register(name, model);
    }
    Ok(reg)
}

fn cmd_check(cli: &Cli) -> Result<(), String> {
    let catalog = load_schema(cli.one("schema")?)?;
    let src = std::fs::read_to_string(cli.one("rules")?).map_err(|e| e.to_string())?;
    let rules = dcer::mrl::parse_rules(&catalog, &src).map_err(|e| e.to_string())?;
    println!("{} rules parse and validate:", rules.len());
    for r in rules.rules() {
        println!(
            "  {}\n    class {:?}, acyclic {}, {} vars, {} predicates",
            r.display(&catalog),
            dcer::mrl::classify(r),
            dcer::mrl::is_acyclic(r),
            r.num_vars(),
            r.num_predicates()
        );
    }
    registry_for(&rules)?;
    println!("all ML predicate names resolve to built-in classifiers");
    Ok(())
}

fn cmd_match(cli: &Cli) -> Result<(), String> {
    let catalog = load_schema(cli.one("schema")?)?;
    let data = load_data(&catalog, cli.many("data"))?;
    let src = std::fs::read_to_string(cli.one("rules")?).map_err(|e| e.to_string())?;
    let rules = dcer::mrl::parse_rules(&catalog, &src).map_err(|e| e.to_string())?;
    let registry = registry_for(&rules)?;
    let session = DcerSession::new(catalog.clone(), rules, registry);

    let sequential = cli.opt("sequential").is_some() || cli.opt("workers").is_none();
    let mut outcome = if sequential {
        eprintln!("running sequential Match over {} tuples", data.total_tuples());
        session.try_run_sequential(&data)?
    } else {
        let workers = parse_workers(cli.one("workers")?)?;
        eprintln!("running DMatch with {workers} workers over {} tuples", data.total_tuples());
        let report = session.run_parallel(&data, &DmatchConfig::new(workers).threaded())?;
        eprintln!(
            "  {} supersteps, {} routed matches, replication x{:.2}",
            report.bsp.supersteps, report.bsp.messages, report.partition.replication_factor
        );
        report.outcome
    };

    // Emit matches as CSV: relation, left key, right key (first attribute
    // is taken as the display key).
    let mut out = String::from("relation,left,right\n");
    let mut n = 0;
    for (a, b) in outcome.matches.all_pairs() {
        let rel_name = &catalog.schema(a.rel).name;
        let key = |t: Tid| data.tuple(t).map_or_else(|| t.to_string(), |x| x.get(0).to_text());
        out.push_str(&format!("{rel_name},{},{}\n", key(a), key(b)));
        n += 1;
    }
    match cli.opt("output") {
        Some(path) => {
            std::fs::write(path, &out).map_err(|e| e.to_string())?;
            eprintln!("{n} matched pairs written to {path}");
        }
        None => print!("{out}"),
    }
    eprintln!(
        "stats: {} valuations, {} ML calls ({} cached), {} validated predictions",
        outcome.stats.valuations,
        outcome.stats.ml_calls,
        outcome.stats.ml_cache_hits,
        outcome.validated.len()
    );
    Ok(())
}

/// `dcer serve`: boot a resident resolver and answer newline-delimited
/// JSON requests on stdin, one response object per line on stdout.
///
/// Requests (`tenant` optional everywhere; defaults to the sole tenant):
///
/// ```json
/// {"op":"lookup","rel":"R","row":3}
/// {"op":"explain","a":{"rel":"R","row":3},"b":{"rel":"R","row":7}}
/// {"op":"admit","insert":[{"rel":"R","values":["a","1"]}],
///               "delete":[{"rel":"R","row":3}]}
/// {"op":"stats"}  {"op":"tenants"}  {"op":"shutdown"}
/// ```
///
/// Responses carry `"ok":true` plus the payload, or `"ok":false` with an
/// `"error"` string (the loop keeps serving after an error).
fn cmd_serve(cli: &Cli) -> Result<(), String> {
    let catalog = load_schema(cli.one("schema")?)?;
    let data = load_data(&catalog, cli.many("data"))?;
    let src = std::fs::read_to_string(cli.one("rules")?).map_err(|e| e.to_string())?;
    let rules = dcer::mrl::parse_rules(&catalog, &src).map_err(|e| e.to_string())?;
    let registry = registry_for(&rules)?;
    let session = DcerSession::new(catalog.clone(), rules, registry);
    let workers = match cli.opt("workers") {
        Some(raw) => parse_workers(raw)?,
        None => 2,
    };
    let tenant_name = cli.opt("tenant").unwrap_or("default").to_string();

    let tenants = ServeRegistry::new();
    tenants.register(&tenant_name, session, &data, &DmatchConfig::new(workers).threaded())?;
    eprintln!(
        "serving tenant `{tenant_name}` ({} live tuples, {workers} workers); \
         NDJSON requests on stdin",
        data.total_live()
    );

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = serve_request(&tenants, &tenant_name, line.trim());
        println!("{response}");
        if shutdown {
            return Ok(());
        }
    }
}

/// Handle one serve request line; returns `(response json, shutdown?)`.
fn serve_request(
    tenants: &ServeRegistry,
    default_tenant: &str,
    line: &str,
) -> (serde_json::Value, bool) {
    match serve_request_inner(tenants, default_tenant, line) {
        Ok((v, shutdown)) => (v, shutdown),
        Err(e) => (json_obj(&[("ok", false.into()), ("error", e.into())]), false),
    }
}

type Json = serde_json::Value;

fn json_obj(fields: &[(&str, Json)]) -> Json {
    Json::Object(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
}

fn tid_json(catalog: &Catalog, t: Tid) -> Json {
    json_obj(&[("rel", catalog.schema(t.rel).name.as_str().into()), ("row", (t.row as i64).into())])
}

fn tid_from_json(catalog: &Catalog, v: &Json) -> Result<Tid, String> {
    let rel_name = v.get("rel").and_then(Json::as_str).ok_or("tuple ref needs `rel`")?;
    let rel = catalog.rel(rel_name).map_err(|e| e.to_string())?;
    let row = v.get("row").and_then(Json::as_i64).ok_or("tuple ref needs `row`")?;
    let row = u32::try_from(row).map_err(|_| format!("bad row `{row}`"))?;
    Ok(Tid::new(rel, row))
}

fn fact_json(catalog: &Catalog, f: dcer::chase::Fact) -> Json {
    match f {
        dcer::chase::Fact::Id(a, b) => json_obj(&[
            ("kind", "id".into()),
            ("a", tid_json(catalog, a)),
            ("b", tid_json(catalog, b)),
        ]),
        dcer::chase::Fact::Ml(sig, a, b) => json_obj(&[
            ("kind", "ml".into()),
            ("sig", (sig as i64).into()),
            ("a", tid_json(catalog, a)),
            ("b", tid_json(catalog, b)),
        ]),
    }
}

fn serve_request_inner(
    tenants: &ServeRegistry,
    default_tenant: &str,
    line: &str,
) -> Result<(Json, bool), String> {
    let req = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let op = req.get("op").and_then(Json::as_str).ok_or("request needs an `op` string")?;
    if op == "tenants" {
        let names: Vec<Json> = tenants.names().into_iter().map(Json::from).collect();
        return Ok((json_obj(&[("ok", true.into()), ("tenants", Json::Array(names))]), false));
    }
    if op == "shutdown" {
        return Ok((json_obj(&[("ok", true.into())]), true));
    }
    let name = req.get("tenant").and_then(Json::as_str).unwrap_or(default_tenant);
    let tenant = tenants.get(name).ok_or_else(|| format!("unknown tenant `{name}`"))?;
    let catalog = tenant.session.catalog();
    match op {
        "lookup" => {
            let tid = tid_from_json(catalog, &req)?;
            let snap = tenant.resolver.snapshot();
            let (cluster, members): (Json, Vec<Tid>) = match snap.cluster_of(tid) {
                Some(c) => ((c as i64).into(), snap.members(c).to_vec()),
                None => (Json::Null, vec![tid]),
            };
            let members: Vec<Json> = members.into_iter().map(|t| tid_json(catalog, t)).collect();
            Ok((
                json_obj(&[
                    ("ok", true.into()),
                    ("epoch", (snap.epoch() as i64).into()),
                    ("cluster", cluster),
                    ("members", Json::Array(members)),
                ]),
                false,
            ))
        }
        "explain" => {
            let a = tid_from_json(catalog, &req["a"]).map_err(|e| format!("a: {e}"))?;
            let b = tid_from_json(catalog, &req["b"]).map_err(|e| format!("b: {e}"))?;
            let snap = tenant.resolver.snapshot();
            let steps = snap.explain(a, b);
            let same = steps.is_some();
            let steps: Vec<Json> = steps
                .unwrap_or_default()
                .into_iter()
                .map(|s| {
                    json_obj(&[
                        ("order", (s.order as i64).into()),
                        ("fact", fact_json(catalog, s.fact)),
                        ("external", s.external.into()),
                        (
                            "support",
                            Json::Array(s.support.iter().map(|&t| tid_json(catalog, t)).collect()),
                        ),
                        (
                            "antecedents",
                            Json::Array(
                                s.antecedents.iter().map(|&f| fact_json(catalog, f)).collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            Ok((
                json_obj(&[
                    ("ok", true.into()),
                    ("epoch", (snap.epoch() as i64).into()),
                    ("same_entity", same.into()),
                    ("steps", Json::Array(steps)),
                ]),
                false,
            ))
        }
        "admit" => {
            let mut batch = UpdateBatch::new();
            if let Json::Array(items) = &req["insert"] {
                for item in items {
                    let rel_name =
                        item.get("rel").and_then(Json::as_str).ok_or("insert needs `rel`")?;
                    let rel = catalog.rel(rel_name).map_err(|e| e.to_string())?;
                    let schema = catalog.schema(rel);
                    let Json::Array(raw) = &item["values"] else {
                        return Err("insert needs a `values` array".to_string());
                    };
                    if raw.len() != schema.arity() {
                        return Err(format!(
                            "{rel_name} expects {} values, got {}",
                            schema.arity(),
                            raw.len()
                        ));
                    }
                    let values: Vec<Value> = raw
                        .iter()
                        .enumerate()
                        .map(|(i, v)| {
                            let ty = schema.attr_type(i as dcer::relation::AttrId);
                            match v {
                                Json::Null => Value::Null,
                                Json::String(s) => Value::parse_typed(s, ty),
                                other => Value::parse_typed(&other.to_string(), ty),
                            }
                        })
                        .collect();
                    batch.insert(rel, values);
                }
            }
            if let Json::Array(items) = &req["delete"] {
                for item in items {
                    batch.delete(tid_from_json(catalog, item)?);
                }
            }
            let report = tenant.resolver.admit(batch)?;
            let tids = |ts: &[Tid]| Json::Array(ts.iter().map(|&t| tid_json(catalog, t)).collect());
            Ok((
                json_obj(&[
                    ("ok", true.into()),
                    ("epoch", (report.epoch as i64).into()),
                    ("inserted", tids(&report.inserted)),
                    ("deleted", tids(&report.deleted)),
                    ("retracted", report.retracted.into()),
                    ("deduced", report.deduced.into()),
                    ("repartitioned", report.repartitioned.into()),
                ]),
                false,
            ))
        }
        "stats" => {
            let snap = tenant.resolver.snapshot();
            Ok((
                json_obj(&[
                    ("ok", true.into()),
                    ("epoch", (snap.epoch() as i64).into()),
                    ("live_tuples", snap.live_tuples().into()),
                    ("clusters", snap.clusters().len().into()),
                    ("validated", snap.validated().len().into()),
                    ("updates_applied", (snap.updates_applied() as i64).into()),
                    ("repartitions", (snap.repartitions() as i64).into()),
                    ("serving", tenant.resolver.is_serving().into()),
                ]),
                false,
            ))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

fn cmd_discover(cli: &Cli) -> Result<(), String> {
    let catalog = load_schema(cli.one("schema")?)?;
    let data = load_data(&catalog, cli.many("data"))?;
    let rel_name = cli.one("relation")?;
    let rel = catalog.rel(rel_name).map_err(|e| e.to_string())?;

    // Labels: CSV with two columns of row indices (0-based) that are
    // duplicates.
    let labels_path = cli.one("labels")?;
    let text = std::fs::read_to_string(labels_path).map_err(|e| e.to_string())?;
    let mut truth = dcer::datagen::GroundTruth::new();
    for (i, rec) in dcer::relation::csv::parse(&text).map_err(|e| e.to_string())?.iter().enumerate()
    {
        if i == 0 && rec.iter().any(|f| f.parse::<u32>().is_err()) {
            continue; // header
        }
        if rec.len() < 2 {
            return Err(format!("{labels_path}: row {} needs two columns", i + 1));
        }
        let a: u32 = rec[0].parse().map_err(|_| format!("{labels_path}: bad row index"))?;
        let b: u32 = rec[1].parse().map_err(|_| format!("{labels_path}: bad row index"))?;
        truth.add_pair(Tid::new(rel, a), Tid::new(rel, b));
    }
    eprintln!("{} labeled duplicate pairs", truth.num_pairs());

    // Candidate ML predicates: one n-gram classifier per string attribute.
    let schema = catalog.schema(rel).clone();
    let mut registry = MlRegistry::new();
    let mut ml_candidates = Vec::new();
    for (a, attr) in schema.iter() {
        if attr.ty == ValueType::Str {
            let name = format!("ngram_60_{}", attr.name);
            registry.register(&name, Arc::new(dcer::ml::NgramCosineClassifier::new(0.6)));
            ml_candidates.push((name, vec![a]));
        }
    }

    let space = dcer::discovery::predicate_space(&catalog, rel, &ml_candidates);
    let evidence =
        dcer::discovery::build_evidence_exhaustive(&data, rel, &truth, &space, &registry, 1000)?;
    let min_support: usize =
        cli.opt("min-support").unwrap_or("10").parse().map_err(|_| "bad --min-support")?;
    let min_conf: f64 =
        cli.opt("min-confidence").unwrap_or("0.97").parse().map_err(|_| "bad --min-confidence")?;
    let max_preds: usize =
        cli.opt("max-preds").unwrap_or("3").parse().map_err(|_| "bad --max-preds")?;
    let mined =
        dcer::discovery::mine_rules(&evidence, space.len(), min_support, min_conf, max_preds);
    let rules = dcer::discovery::to_rule_set(&catalog, rel, &space, &mined, "mined_")?;
    println!("# {} rules mined from {} evidence pairs", rules.len(), evidence.len());
    for (r, m) in rules.rules().iter().zip(&mined) {
        println!("# support {}, confidence {:.3}", m.support, m.confidence);
        println!("{}", r.display(&catalog));
    }
    Ok(())
}
