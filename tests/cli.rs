//! End-to-end tests of the `pi` command-line binary.

use std::process::Command;
use std::time::{Duration, Instant};

use predictive_interconnect::serve::{
    execute_batch, ApiRequest, ApiResponse, Batcher, NodeStore, ServerStats,
};

fn pi(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pi"))
        .args(args)
        .output()
        .expect("pi binary runs")
}

#[test]
fn delay_command_reports_plan_and_delay() {
    let out = pi(&["delay", "--tech", "65nm", "--length", "5mm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("65nm 5 mm SS"));
    assert!(text.contains("delay"));
    assert!(text.contains("ps"));
}

#[test]
fn delay_accepts_explicit_plan() {
    let out = pi(&[
        "delay", "--tech", "90nm", "--length", "3mm", "--count", "4", "--drive", "16",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 x inverter"));
}

#[test]
fn reach_staggered_exceeds_plain() {
    let parse_mm = |out: std::process::Output| -> f64 {
        let text = String::from_utf8_lossy(&out.stdout);
        let tail = text.split("link ").nth(1).expect("reach line");
        tail.split_whitespace()
            .next()
            .expect("value")
            .parse()
            .expect("number")
    };
    let plain = parse_mm(pi(&["reach", "--tech", "45nm", "--clock", "3GHz"]));
    let staggered = parse_mm(pi(&[
        "reach",
        "--tech",
        "45nm",
        "--clock",
        "3GHz",
        "--staggered",
    ]));
    assert!(staggered > plain, "{staggered} vs {plain}");
}

#[test]
fn noc_runs_on_a_user_spec_file() {
    let dir = std::env::temp_dir().join("pi_cli_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("soc.txt");
    std::fs::write(
        &path,
        "design T\ndie 10 10\nwidth 64\ncore a 1 1\ncore b 8 8\nflow a b 12\n",
    )
    .expect("write spec");
    let out = pi(&[
        "noc",
        "--spec",
        path.to_str().expect("utf8 path"),
        "--tech",
        "65nm",
        "--clock",
        "2GHz",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T / proposed model"));
    assert!(text.contains("dynamic"));
}

#[test]
fn report_full_includes_signoff() {
    let out = pi(&[
        "report", "--tech", "65nm", "--length", "4mm", "--clock", "2GHz", "--full",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("timing"));
    assert!(text.contains("signoff"));
    assert!(text.contains("yield"));
}

#[test]
fn bad_arguments_fail_with_messages() {
    let out = pi(&["delay", "--tech", "7nm", "--length", "5mm"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown technology node"));

    let out = pi(&["delay", "--tech", "65nm"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --length"));

    let out = pi(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = pi(&[]);
    assert!(!out.status.success());
}

#[test]
fn obs_jsonl_journal_validates_and_renders() {
    let dir = std::env::temp_dir().join("pi_cli_obs_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let journal = dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&journal);
    let journal_str = journal.to_str().expect("utf8 path");

    // The traced run lasts ~300 µs, so on a loaded single-core host one
    // scheduler preemption between probes can push the wall-clock
    // accounting outside the --check tolerance. Retry the whole
    // trace-and-check sequence: a real accounting bug fails every
    // attempt; scheduler noise does not.
    let mut checked = None;
    for _ in 0..5 {
        let _ = std::fs::remove_file(&journal);
        let out = Command::new(env!("CARGO_BIN_EXE_pi"))
            .args(["delay", "--tech", "65nm", "--length", "5mm"])
            .env("PI_OBS", format!("jsonl:{journal_str}"))
            .output()
            .expect("pi binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&journal).expect("journal written");
        assert!(text.contains("\"type\":\"meta\""), "{text}");
        assert!(text.contains("\"name\":\"pi.delay\""), "{text}");
        assert!(text.contains("\"type\":\"finish\""), "{text}");

        // --check validates every line plus the wall-clock accounting bound.
        let out = pi(&["obs-report", journal_str, "--check"]);
        let ok = out.status.success();
        checked = Some(out);
        if ok {
            break;
        }
    }
    let out = checked.expect("at least one attempt ran");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // Default mode renders the span tree and metric tables.
    let out = pi(&["obs-report", journal_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pi.delay"), "{text}");
    assert!(text.contains("wall clock"), "{text}");

    // Missing file and missing path argument both fail with a message.
    let out = pi(&["obs-report", "/nonexistent/trace.jsonl"]);
    assert!(!out.status.success());
    let out = pi(&["obs-report"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("obs-report"));
}

#[test]
fn yield_command_reports_distribution_and_yield() {
    let out = pi(&[
        "yield",
        "--tech",
        "65nm",
        "--length",
        "8mm",
        "--deadline",
        "600ps",
        "--samples",
        "500",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("500 samples"));
    assert!(text.contains("timing yield @ 600 ps"));
}

#[test]
fn yield_command_exposes_the_estimator_family() {
    for estimator in ["sobol-scrambled", "importance", "analytic"] {
        let out = pi(&[
            "yield",
            "--tech",
            "65nm",
            "--length",
            "8mm",
            "--deadline",
            "600ps",
            "--estimator",
            estimator,
        ]);
        assert!(
            out.status.success(),
            "{estimator}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&format!("estimator {estimator}")), "{text}");
        assert!(text.contains("line evaluations"), "{text}");
    }

    let out = pi(&[
        "yield",
        "--tech",
        "65nm",
        "--length",
        "8mm",
        "--deadline",
        "600ps",
        "--estimator",
        "bogus",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown estimator"));
}

/// Runs `pi` and kills it if it outlives `secs` — a command that should
/// have refused its arguments must not hang the suite by serving.
fn pi_bounded(args: &[&str], secs: u64) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pi"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("pi binary runs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill runaway pi");
            let out = child.wait_with_output().expect("reaped");
            panic!(
                "pi {args:?} still running after {secs} s: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("output")
}

#[test]
fn unknown_flags_are_rejected_and_help_lists_the_accepted_ones() {
    let cases: [(&[&str], &str, &str); 3] = [
        (
            &[
                "yield",
                "--tech",
                "65nm",
                "--length",
                "5mm",
                "--deadline",
                "600ps",
                "--estimtor",
                "naive",
            ],
            "`--estimtor`",
            "--estimator <value>",
        ),
        (
            &[
                "size",
                "--tech",
                "65nm",
                "--length",
                "5mm",
                "--deadline",
                "650ps",
                "--gpp",
            ],
            "`--gpp`",
            "[--gp]",
        ),
        (
            &["serve", "--addr", "127.0.0.1:0"],
            "`--addr`",
            "--port <value>",
        ),
    ];
    for (args, named, listed) in cases {
        let out = pi_bounded(args, 30);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(
            err.contains(listed),
            "{args:?} lists the accepted flags: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did work before failing");
    }
    // `--help` / `-h` print the same list and exit 0 — `pi serve --help`
    // included, which must not bind a port.
    for cmd in [
        "delay",
        "optimize",
        "reach",
        "noc",
        "yield",
        "size",
        "report",
        "serve",
        "load",
        "scaling",
        "obs-report",
        "obs-top",
    ] {
        for help in ["--help", "-h"] {
            let out = pi_bounded(&[cmd, help], 30);
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "pi {cmd} {help}");
            assert!(text.starts_with(&format!("usage: pi {cmd}")), "{text}");
            assert!(
                !text.contains("listening"),
                "pi {cmd} {help} started work: {text}"
            );
        }
    }
    let out = pi_bounded(&["serve", "--help"], 30);
    assert!(String::from_utf8_lossy(&out.stdout).contains("--port <value>"));
}

/// Answers one `/v1/*` body in process, exactly as the server would: the
/// wire decoder first (a body it refuses is a 400), then one batch.
fn serve_one(path: &str, body: &str) -> ApiResponse {
    let request = match ApiRequest::from_path_body(path, body) {
        Ok(request) => request,
        Err(e) => return ApiResponse::error(400, e.expect("known endpoint")),
    };
    let queue = Batcher::new(4);
    let rx = queue.submit(request).expect("queued");
    let batch = queue.take_batch(Duration::ZERO).expect("open queue");
    execute_batch(NodeStore::global(), batch, &ServerStats::default());
    rx.recv().expect("answered").0
}

/// A JSON object body from `(key, raw JSON value)` members.
fn json_body(members: &[(&str, String)]) -> String {
    let inner: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// One request on both surfaces: the CLI command with its flags, and the
/// matching endpoint with its JSON members.
struct Surface {
    cli: Vec<(&'static str, &'static str)>,
    command: &'static str,
    path: &'static str,
    json: Vec<(&'static str, String)>,
}

impl Surface {
    fn yield_pair() -> Self {
        Surface {
            command: "yield",
            cli: vec![
                ("--tech", "65nm"),
                ("--length", "5mm"),
                ("--deadline", "600ps"),
                ("--estimator", "naive"),
                ("--ci", "2"),
                // Correlation on, so `regions` is validated too.
                ("--rho", "0.5"),
            ],
            path: "/v1/yield",
            json: vec![
                ("tech", "\"65nm\"".to_owned()),
                ("length_mm", "5".to_owned()),
                ("deadline_ps", "600".to_owned()),
                ("estimator", "\"naive\"".to_owned()),
                ("seed", "1".to_owned()),
                ("ci_pct", "2".to_owned()),
                ("rho", "0.5".to_owned()),
            ],
        }
    }

    fn size_pair() -> Self {
        Surface {
            command: "size",
            cli: vec![
                ("--tech", "65nm"),
                ("--length", "5mm"),
                ("--deadline", "650ps"),
                ("--estimator", "naive"),
                ("--ci", "2"),
            ],
            path: "/v1/size",
            json: vec![
                ("tech", "\"65nm\"".to_owned()),
                ("length_mm", "5".to_owned()),
                ("deadline_ps", "650".to_owned()),
                ("target_yield", "0.9".to_owned()),
                ("estimator", "\"naive\"".to_owned()),
                ("seed", "1".to_owned()),
                ("ci_pct", "2".to_owned()),
            ],
        }
    }

    /// The same pair with one field replaced (or added) on both sides.
    fn with(&self, flag: &'static str, value: &'static str, key: &'static str, raw: &str) -> Self {
        let mut cli: Vec<_> = self
            .cli
            .iter()
            .copied()
            .filter(|(f, _)| *f != flag)
            .collect();
        cli.push((flag, value));
        let mut json: Vec<_> = self
            .json
            .iter()
            .filter(|(k, _)| *k != key)
            .cloned()
            .collect();
        json.push((key, raw.to_owned()));
        Surface {
            cli,
            command: self.command,
            path: self.path,
            json,
        }
    }

    fn run_cli(&self) -> std::process::Output {
        let mut args = vec![self.command];
        for (flag, value) in &self.cli {
            args.extend([*flag, *value]);
        }
        pi_bounded(&args, 60)
    }

    fn serve(&self) -> ApiResponse {
        serve_one(self.path, &json_body(&self.json))
    }
}

#[test]
fn malformed_inputs_fail_on_both_surfaces() {
    // (CLI flag, CLI value, JSON key, JSON value, applies to yield, to size)
    let table: &[(&str, &str, &str, &str, bool, bool)] = &[
        ("--ci", "NaN", "ci_pct", "NaN", true, true),
        ("--ci", "-1", "ci_pct", "-1", true, true),
        ("--deadline", "NaN", "deadline_ps", "NaN", true, true),
        ("--deadline", "-650ps", "deadline_ps", "-650", true, true),
        ("--deadline", "0ps", "deadline_ps", "0", true, true),
        ("--length", "0mm", "length_mm", "0", true, true),
        ("--length", "150mm", "length_mm", "150", true, true),
        ("--rho", "1.5", "rho", "1.5", true, false),
        ("--regions", "0", "regions", "0", true, false),
        ("--target", "0", "target_yield", "0", false, true),
        ("--target", "1.5", "target_yield", "1.5", false, true),
        ("--target", "NaN", "target_yield", "NaN", false, true),
        (
            "--estimator",
            "monte-zuma",
            "estimator",
            "\"monte-zuma\"",
            true,
            true,
        ),
    ];
    // The untouched bases are valid on both sides.
    for base in [Surface::yield_pair(), Surface::size_pair()] {
        assert!(base.run_cli().status.success(), "pi {} base", base.command);
        assert_eq!(base.serve().status(), 200, "{} base", base.path);
    }
    for &(flag, value, key, raw, on_yield, on_size) in table {
        let bases = [
            (on_yield, Surface::yield_pair()),
            (on_size, Surface::size_pair()),
        ];
        for (_, base) in bases.iter().filter(|(applies, _)| *applies) {
            let bad = base.with(flag, value, key, raw);
            let out = bad.run_cli();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                !out.status.success() && err.starts_with("error:"),
                "pi {} {flag} {value} must fail cleanly: {err}",
                bad.command
            );
            let resp = bad.serve();
            assert_eq!(resp.status(), 400, "{} {key}={raw}: {resp:?}", bad.path);
        }
    }
}

/// The first line of `text` containing `needle`, for failure messages.
fn line_with<'a>(text: &'a str, needle: &str) -> &'a str {
    text.lines().find(|l| l.contains(needle)).unwrap_or("")
}

#[test]
fn cli_answers_equal_served_answers() {
    for (mm, deadline_ps) in [(3u32, 215u32), (5, 320), (8, 500)] {
        let length = format!("{mm}mm");
        let deadline = format!("{deadline_ps}ps");
        // Sizing, on both engines.
        for gp in [false, true] {
            let mut args = vec![
                "size",
                "--tech",
                "65nm",
                "--length",
                &length,
                "--deadline",
                &deadline,
                "--ci",
                "1",
                "--seed",
                "3",
            ];
            if gp {
                args.push("--gp");
            }
            let out = pi(&args);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8_lossy(&out.stdout);
            let body = format!(
                r#"{{"tech":"65nm","length_mm":{mm},"deadline_ps":{deadline_ps},"target_yield":0.9,"estimator":"sobol-scrambled","seed":3,"ci_pct":1,"gp":{gp}}}"#
            );
            let ApiResponse::Size(served) = serve_one("/v1/size", &body) else {
                panic!("{body} did not size");
            };
            let plan = format!(
                "sized plan: {} x inverter wn {:.2} um ({} steps)",
                served.count, served.wn_um, served.steps
            );
            let achieved = format!(
                "yield @ {deadline_ps} ps: {:.2}%",
                served.achieved_yield * 100.0
            );
            assert!(
                text.contains(&plan),
                "{plan} vs {}",
                line_with(&text, "sized plan")
            );
            assert!(
                text.contains(&achieved),
                "{achieved} vs {}",
                line_with(&text, "yield @")
            );
        }
        // Yield through the estimator family: the plan the service
        // evaluates and the estimate it answers.
        let out = pi(&[
            "yield",
            "--tech",
            "65nm",
            "--length",
            &length,
            "--deadline",
            &deadline,
            "--estimator",
            "sobol-scrambled",
            "--ci",
            "1",
            "--seed",
            "3",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let ApiResponse::Eval(eval) = serve_one(
            "/v1/eval",
            &format!(r#"{{"tech":"65nm","length_mm":{mm}}}"#),
        ) else {
            panic!("eval failed");
        };
        let body = format!(
            r#"{{"tech":"65nm","length_mm":{mm},"deadline_ps":{deadline_ps},"estimator":"sobol-scrambled","seed":3,"ci_pct":1}}"#
        );
        let ApiResponse::Yield(served) = serve_one("/v1/yield", &body) else {
            panic!("{body} did not estimate");
        };
        let plan = format!(
            "{} x inverter wn {:.1} um, estimator {}",
            eval.count, eval.wn_um, served.method
        );
        let estimate = format!(
            "timing yield @ {deadline_ps} ps: {:.2}% (±{:.2}% at 95%, {} line evaluations)",
            served.yield_fraction * 100.0,
            served.half_width * 100.0,
            served.evals
        );
        assert!(text.contains(&plan), "{plan} vs {text}");
        assert!(text.contains(&estimate), "{estimate} vs {text}");
    }
}
