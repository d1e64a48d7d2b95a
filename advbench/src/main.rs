//! `advbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced). The host
//! fingerprint is printed on the line before it and written, with the
//! run's details, to `advbench/out/`. Exits 1 when an output check fails
//! and 2 when the run cannot be set up.

use advbench::{host, Options};
use advcomp_serve::json::{Json, JsonObj};
use std::path::PathBuf;

struct Args {
    workload: String,
    opts: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Options {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(16.0),
            trace: trace.unwrap_or(false),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("advbench: {e}");
            std::process::exit(2);
        }
    };
    host::pin_pool_threads(advbench::pool_threads(&args.workload));
    let ticks = host::cpu_ticks();
    let out_dir = PathBuf::from("advbench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.opts.seed,
        u8::from(args.opts.trace)
    );
    let outcome = match advbench::run(
        &args.workload,
        args.opts,
        &out_dir.join(format!("{stem}.spans.jsonl")),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("advbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("advbench: check failed: {p}");
    }

    let fingerprint = host::fingerprint(
        &args.workload,
        args.opts.seed,
        advbench::sweep::scale().workers(),
        host::steal_pct(ticks, host::cpu_ticks()),
    );
    let mut metrics = JsonObj::new();
    for m in &outcome.metrics {
        metrics = metrics.set(
            &m.name,
            JsonObj::new()
                .set("value", Json::Num(m.value))
                .set("unit", Json::Str(m.unit.into()))
                .build(),
        );
    }
    let metrics = metrics.build();
    let result = JsonObj::new()
        .set("correct", Json::Bool(outcome.correct))
        .set("attempted", Json::Num(outcome.attempted as f64))
        .set("failed", Json::Num(outcome.failed as f64))
        .set("metrics", metrics)
        .build();
    let record = JsonObj::new()
        .set("fingerprint", fingerprint.clone())
        .set("seconds", Json::Num(args.opts.seconds))
        .set("result", result.clone())
        .set(
            "problems",
            Json::Arr(
                outcome
                    .problems
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        )
        .set("details", outcome.details)
        .build();
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), record.to_string()))
    {
        eprintln!("advbench: could not write the result file: {e}");
    }
    println!("{}", JsonObj::new().set("fingerprint", fingerprint).build());
    println!("{result}");
    if !outcome.correct {
        std::process::exit(1);
    }
}
