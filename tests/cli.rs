//! End-to-end tests of the `dcer` command-line binary: schema parsing,
//! rule checking, matching (sequential and parallel) and rule discovery,
//! all through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dcer"))
}

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("dcer-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let f = Fixture { dir };
        f.write(
            "schema.txt",
            "Person(pid: str, name: str, email: str)\nAccount(owner: str, iban: str)\n",
        );
        f.write(
            "person.csv",
            "pid,name,email\n\
             p1,Ada Lovelace,ada@calc.org\n\
             p2,A. Lovelace,ada@calc.org\n\
             p3,Ada K. Lovelace,ada.k@calc.org\n\
             p4,Charles Babbage,cb@engine.org\n",
        );
        f.write("account.csv", "owner,iban\np2,GB00-1234\np3,GB00-1234\np4,GB99-9999\n");
        f.write(
            "rules.mrl",
            "match by_email: Person(a), Person(b), monge_75(a.name, b.name), \
               a.email = b.email -> a.id = b.id;\n\
             match by_account: Person(a), Person(b), Account(x), Account(y), \
               a.pid = x.owner, b.pid = y.owner, x.iban = y.iban, \
               monge_75(a.name, b.name) -> a.id = b.id\n",
        );
        f
    }

    fn write(&self, name: &str, contents: &str) {
        std::fs::write(self.dir.join(name), contents).unwrap();
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

#[test]
fn check_validates_rules_and_reports_classes() {
    let f = Fixture::new("check");
    let out = bin()
        .args(["check", "--schema", &f.path("schema.txt"), "--rules", &f.path("rules.mrl")])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 rules parse and validate"));
    assert!(stdout.contains("class Collective"));
}

#[test]
fn match_finds_transitive_cluster_sequential_and_parallel() {
    let f = Fixture::new("match");
    for extra in [vec!["--sequential"], vec!["--workers", "3"]] {
        let mut args = vec![
            "match".to_string(),
            "--schema".into(),
            f.path("schema.txt"),
            "--data".into(),
            format!("Person={}", f.path("person.csv")),
            "--data".into(),
            format!("Account={}", f.path("account.csv")),
            "--rules".into(),
            f.path("rules.mrl"),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = bin().args(&args).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        // p1~p2 (email), p2~p3 (account), p1~p3 (transitivity).
        for pair in ["p1,p2", "p2,p3", "p1,p3"] {
            assert!(stdout.contains(pair), "{extra:?}: missing {pair} in:\n{stdout}");
        }
        assert!(!stdout.contains("p4"), "Babbage must not match anyone");
    }
}

#[test]
fn match_writes_output_file() {
    let f = Fixture::new("out");
    let out_path = f.path("matches.csv");
    let out = bin()
        .args([
            "match",
            "--schema",
            &f.path("schema.txt"),
            "--data",
            &format!("Person={}", f.path("person.csv")),
            "--data",
            &format!("Account={}", f.path("account.csv")),
            "--rules",
            &f.path("rules.mrl"),
            "--sequential",
            "--output",
            &out_path,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert!(written.starts_with("relation,left,right"));
    assert_eq!(written.lines().count(), 4); // header + 3 pairs
}

#[test]
fn discover_mines_rules_from_labels() {
    let f = Fixture::new("discover");
    f.write("songs_schema.txt", "song(title: str, artist: str, year: int)\n");
    let mut csv = String::from("title,artist,year\n");
    let mut labels = String::from("left,right\n");
    for i in 0..40 {
        csv.push_str(&format!("song number {i},artist {}\u{20}band,19{:02}\n", i % 7, i % 50));
        csv.push_str(&format!("song number {i},artist {}\u{20}band,19{:02}\n", i % 7, i % 50));
        labels.push_str(&format!("{},{}\n", 2 * i, 2 * i + 1));
    }
    f.write("songs.csv", &csv);
    f.write("labels.csv", &labels);
    let out = bin()
        .args([
            "discover",
            "--schema",
            &f.path("songs_schema.txt"),
            "--data",
            &format!("song={}", f.path("songs.csv")),
            "--relation",
            "song",
            "--labels",
            &f.path("labels.csv"),
            "--min-support",
            "10",
            "--min-confidence",
            "0.95",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rules mined"), "{stdout}");
    assert!(stdout.contains("-> t.id = s.id"), "{stdout}");
}

#[test]
fn helpful_errors() {
    let out = bin().args(["match"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--schema"));

    let f = Fixture::new("badrule");
    f.write("bad.mrl", "match x: Person(a) -> a.id = a.id");
    let out = bin()
        .args(["check", "--schema", &f.path("schema.txt"), "--rules", &f.path("bad.mrl")])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("trivial"));
}

/// Every malformed invocation must exit 2 with usage text on stderr —
/// never panic (exit 101) and never hang.
#[test]
fn bad_invocations_print_usage_and_exit_nonzero() {
    let f = Fixture::new("badargs");
    let cases: Vec<Vec<String>> = vec![
        vec![],                                  // no subcommand
        vec!["frobnicate".into()],               // unknown subcommand
        vec!["match".into(), "stray".into()],    // positional arg
        vec!["match".into(), "--schema".into()], // flag without value
        vec![
            // --workers must be numeric and nonzero
            "match".into(),
            "--schema".into(),
            f.path("schema.txt"),
            "--data".into(),
            format!("Person={}", f.path("person.csv")),
            "--rules".into(),
            f.path("rules.mrl"),
            "--workers".into(),
            "0".into(),
        ],
        vec![
            "serve".into(), // serve with a missing required flag
            "--schema".into(),
            f.path("schema.txt"),
        ],
    ];
    for args in cases {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage") || stderr.contains("--") || stderr.contains("needs"),
            "args {args:?}: unhelpful stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "args {args:?} panicked:\n{stderr}");
    }
}

/// Historical panic: a schema line with `)` before `(` sliced with
/// `begin > end`. Must now be a plain error.
#[test]
fn malformed_schema_is_an_error_not_a_panic() {
    let f = Fixture::new("badschema");
    for bad in [")Person(\n", "(pid: str)\n"] {
        f.write("bad_schema.txt", bad);
        let out = bin()
            .args(["check", "--schema", &f.path("bad_schema.txt"), "--rules", &f.path("rules.mrl")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "schema {bad:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "schema {bad:?} panicked:\n{stderr}");
        assert!(stderr.contains("malformed") || stderr.contains("missing"), "{stderr}");
    }
}

/// Drive `dcer serve` over its NDJSON stdin/stdout protocol: lookups and
/// explains answer from the resident snapshot, admits advance the epoch,
/// request errors are per-line (the loop keeps serving), and `shutdown`
/// exits cleanly.
#[test]
fn serve_answers_ndjson_requests_over_stdin() {
    use std::io::Write;

    let f = Fixture::new("serve");
    let mut child = bin()
        .args([
            "serve",
            "--schema",
            &f.path("schema.txt"),
            "--data",
            &format!("Person={}", f.path("person.csv")),
            "--data",
            &format!("Account={}", f.path("account.csv")),
            "--rules",
            &f.path("rules.mrl"),
            "--workers",
            "2",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    let requests = [
        r#"{"op":"lookup","rel":"Person","row":0}"#,
        r#"{"op":"explain","a":{"rel":"Person","row":0},"b":{"rel":"Person","row":2}}"#,
        r#"{"op":"admit","insert":[{"rel":"Person","values":["p5","Ada Lovelace","ada@calc.org"]}],"delete":[{"rel":"Person","row":3}]}"#,
        r#"{"op":"lookup","rel":"Person","row":4}"#,
        r#"{"op":"lookup","rel":"Nope","row":0}"#,
        r#"this is not json"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"shutdown"}"#,
    ];
    let mut stdin = child.stdin.take().unwrap();
    for r in requests {
        writeln!(stdin, "{r}").unwrap();
    }
    drop(stdin);

    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), requests.len(), "one response per request:\n{stdout}");

    // p1's cluster holds the Ada trio at epoch 0.
    assert!(lines[0].contains(r#""ok":true"#) && lines[0].contains(r#""epoch":0"#), "{}", lines[0]);
    assert!(lines[0].matches(r#""rel":"Person""#).count() == 3, "{}", lines[0]);
    // explain returns a nonempty support chain.
    assert!(lines[1].contains(r#""same_entity":true"#), "{}", lines[1]);
    assert!(lines[1].contains(r#""support""#), "{}", lines[1]);
    // admit bumps the epoch and reports the delta.
    assert!(
        lines[2].contains(r#""epoch":1"#) && lines[2].contains(r#""inserted""#),
        "{}",
        lines[2]
    );
    // the inserted p5 joins the Ada cluster in the new snapshot.
    assert!(
        lines[3].contains(r#""epoch":1"#) && lines[3].contains(r#""cluster":"#),
        "{}",
        lines[3]
    );
    assert!(lines[3].matches(r#""rel":"Person""#).count() >= 4, "{}", lines[3]);
    // bad relation and bad JSON are per-request errors, not crashes.
    assert!(lines[4].contains(r#""ok":false"#), "{}", lines[4]);
    assert!(lines[5].contains(r#""ok":false"#) && lines[5].contains("parse"), "{}", lines[5]);
    // the loop kept serving after the errors.
    assert!(lines[6].contains(r#""updates_applied":1"#), "{}", lines[6]);
    assert!(lines[7].contains(r#""ok":true"#), "{}", lines[7]);
}
