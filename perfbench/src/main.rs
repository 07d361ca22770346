//! End-to-end benchmark of LogBase: a 3-member `Cluster` on the on-disk
//! DFS, served over TCP to closed-loop clients in this process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload write_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same workload again with spans and the per-layer replay passes and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object; everything above it is the readable report. See
//! `perfbench/README.md`.

mod gen;
mod layers;
mod live;
mod stats;
mod trace;

use gen::{Inputs, Kind, CLIENTS, MEMBERS};
use live::{Expected, Phase, REPLICATION};
use stats::{median, ratio, summarize, Summary};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Recovery rounds per untraced run; `recovery_s` is the median of the
/// quietest half of them (least host steal time).
const RECOVERY_ROUNDS: usize = 7;
/// Where runs put their DFS directories, results and spans.
const OUT_DIR: &str = ".bench_out";
/// Connections `TcpTransport` pools per member.
const TCP_POOL: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One metric of the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    text: String,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        self.line(format!("{name:<34} {value:>14.3} {unit}"));
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn run(args: &Args) -> Result<(), String> {
    let spec = gen::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = gen::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {:?} (have {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let inputs = Inputs::generate(spec, args.seed, args.seconds);
    let work = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);

    let mut report = Report::default();
    header(&mut report, args, &inputs);
    let outcome = if args.trace {
        traced_run(&mut report, args, &inputs, &work)
    } else {
        untraced_run(&mut report, args, &inputs, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome?;

    for e in &report.errors {
        report.text.push_str(&format!("FAILED: {e}\n"));
    }
    let json = report.json();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(
        Path::new(OUT_DIR).join(format!("{stem}.txt")),
        format!("{}{json}\n", report.text),
    );
    print!("{}", report.text);
    println!("{json}");
    Ok(())
}

fn header(r: &mut Report, args: &Args, inputs: &Inputs) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mix = inputs.spec.mix;
    r.line(format!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    r.line(format!(
        "# host: nproc={nproc} cpu=\"{cpu}\" commit={}",
        git_commit()
    ));
    r.line(format!(
        "# cluster: members={MEMBERS} replication={REPLICATION} dfs=on-disk, buffered appends, no fsync; \
         read_buffer=16 MiB/member ({} MiB total); tcp_pool={TCP_POOL} conns/member (the client's, not load)",
        16 * MEMBERS
    ));
    r.line(format!(
        "# load: {CLIENTS} closed-loop client threads sharing one Client over TCP, at most {CLIENTS} requests in flight"
    ));
    r.line(format!(
        "# inputs: items={} keys={} values={} B mix put/get/scan/txn={}/{}/{}/{} per mille digest={:016x}",
        inputs.spec.items,
        if inputs.spec.zipf { "zipf 0.99" } else { "uniform" },
        gen::VALUE_BYTES,
        mix[0],
        mix[1],
        mix[2],
        mix[3],
        inputs.digest
    ));
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The end-to-end throughput and latency figures of a phase, over its
/// quietest half of windows.
struct Figures {
    throughput: f64,
    lat: [Summary; 4],
    mask: Vec<bool>,
}

fn figures(phase: &Phase, seconds: u64) -> Figures {
    let span = phase.steal.len() as u64 * live::WINDOW.as_nanos() as u64;
    let mask = stats::quietest(&phase.steal, live::windows_used(seconds));
    let mut lat: [Summary; 4] = Default::default();
    let mut count = 0;
    for (k, sum) in lat.iter_mut().enumerate() {
        let samples: Vec<(u64, u64)> = phase.ends[k]
            .iter()
            .copied()
            .zip(phase.lat[k].iter().copied())
            .collect();
        let mut kept = stats::in_windows(&samples, span, &mask);
        count += kept.len();
        *sum = summarize(&mut kept);
    }
    let kept_s = live::WINDOW.as_secs_f64() * mask.iter().filter(|&&m| m).count() as f64;
    Figures {
        throughput: ratio(count as f64, kept_s),
        lat,
        mask,
    }
}

fn window_line(r: &mut Report, fig: &Figures, phase: &Phase) {
    let cells: Vec<String> = phase
        .steal
        .iter()
        .zip(&fig.mask)
        .map(|(s, &used)| if used { format!("{s}*") } else { s.to_string() })
        .collect();
    r.line(format!(
        "# {} windows of {} ms, host steal ticks in each (* = used): {}; pooled throughput {:.1} ops/s",
        phase.steal.len(),
        live::WINDOW.as_millis(),
        cells.join(" "),
        phase.throughput()
    ));
}

fn latency_lines(r: &mut Report, title: &str, sums: &[Summary; 4]) {
    r.line(format!("# {title} latency, client side"));
    for (kind, s) in Kind::ALL.iter().zip(sums) {
        let tail = s
            .tail
            .map_or("none".to_string(), |(p, v)| format!("p{p}={v:.1} us"));
        r.line(format!(
            "#   {:<4} n={:<7} p50={:>9.1} us p99={:>9.1} us tail({}+ beyond)={tail}",
            kind.name(),
            s.n,
            s.p50_us,
            s.p99_us,
            stats::MIN_BEYOND
        ));
    }
}

fn check_phase(r: &mut Report, phase: &Phase) {
    r.attempted += phase.attempted;
    r.failed += phase.failed;
    r.errors.extend(phase.errors.iter().cloned());
}

/// Add a recovery check's outcome to the report.
fn check_recovered(r: &mut Report, verified: live::Verified) {
    r.attempted += verified.keys_checked;
    r.failed += verified.failures;
    r.errors.extend(verified.errors);
}

/// Checkpoint the phase's cluster, crash and recover every member once,
/// and check that every acknowledged write survived. Returns the
/// recovery time, which is reported but not gated: the checkpoint holds
/// every version the phase wrote, so it grows with the phase's
/// throughput.
fn recover_and_check(
    r: &mut Report,
    rig: &mut live::Rig,
    inputs: &Inputs,
    expected: &Expected,
) -> Result<f64, String> {
    rig.cluster
        .sync_all()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let recovery = live::recover(&mut rig.cluster, 1)?;
    check_recovered(r, live::verify(&rig.cluster, inputs, expected));
    Ok(recovery.round_s[0])
}

fn untraced_run(r: &mut Report, args: &Args, inputs: &Inputs, work: &Path) -> Result<(), String> {
    // Set-up 0 carries the fixed write history that space, memory and
    // recovery are measured on; the last set-up serves the measured
    // phase.
    let history = live::fixed_history(inputs, &work.join("setup0"), RECOVERY_ROUNDS)?;
    check_recovered(r, history.verified);
    let mut setups = vec![history.setup.total_s];
    let mut kept = None;
    for i in 1..SETUP_RUNS {
        let mut expected = Expected::new(inputs.spec.items);
        let (rig, times) = live::setup(inputs, &work.join(format!("setup{i}")), &mut expected)?;
        setups.push(times.total_s);
        if i + 1 < SETUP_RUNS {
            rig.teardown();
        } else {
            kept = Some((rig, expected));
        }
    }
    let (mut rig, mut expected) = kept.expect("at least two set-ups");

    let client = rig.client(false);
    let phase = live::run_phase(&client, inputs, args.seconds, false, 0);
    expected.apply(&phase.acks);
    check_phase(r, &phase);
    let phase_recovery_s = recover_and_check(r, &mut rig, inputs, &expected)?;
    let recovery = &history.recovery;
    let quiet = stats::quietest(&recovery.steal, RECOVERY_ROUNDS.div_ceil(2));
    let quiet_rounds: Vec<f64> = recovery
        .round_s
        .iter()
        .zip(&quiet)
        .filter(|(_, &q)| q)
        .map(|(s, _)| *s)
        .collect();

    let fig = figures(&phase, args.seconds);
    latency_lines(r, "measured phase, quiet windows", &fig.lat);
    window_line(r, &fig, &phase);
    r.line(format!(
        "# setups (s): {:?}; fixed tail written in {:.3} s; recovery rounds after it (s, 3 members each): {:?}, steal ticks {:?}",
        setups, history.tail_s, recovery.round_s, recovery.steal
    ));
    r.line(format!(
        "# after the phase: checkpoint, then recovery of 3 members in {phase_recovery_s:.3} s; \
         peak resident set of the whole run {:.1} MiB (neither gated)",
        live::peak_rss_mib()
    ));
    r.line(format!(
        "# error_ratio={} ({} failed of {} attempted, recovery check included)",
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    ));
    // The p99s and the tail percentiles stay in the report above: on a
    // shared 2-core host they spread too far between runs to gate a
    // change on.
    r.metric("throughput_ops_s", fig.throughput, "ops/s");
    for (k, kind) in Kind::ALL.iter().enumerate() {
        r.metric(format!("{}_p50_us", kind.name()), fig.lat[k].p50_us, "us");
    }
    r.metric("recovery_s", median(&quiet_rounds), "s");
    r.metric("setup_s", median(&setups), "s");
    r.metric("space_amp", history.space_amp, "ratio");
    r.metric("rss_mib", history.rss_mib, "MiB");
    drop(client);
    rig.teardown();
    Ok(())
}

fn traced_run(r: &mut Report, args: &Args, inputs: &Inputs, work: &Path) -> Result<(), String> {
    let history = live::fixed_history(inputs, &work.join("history"), 1)?;
    check_recovered(r, history.verified);
    let mut expected = Expected::new(inputs.spec.items);
    let (mut rig, times) = live::setup(inputs, &work.join("setup"), &mut expected)?;

    // Untraced then traced phase on the same cluster: their difference
    // is the tracing overhead.
    let plain = rig.client(false);
    let untraced = live::run_phase(&plain, inputs, args.seconds, false, 0);
    expected.apply(&untraced.acks);
    check_phase(r, &untraced);

    let client = rig.client(true);
    let metrics = rig.cluster.metrics();
    let before = metrics.snapshot();
    let traced = live::run_phase(&client, inputs, args.seconds, true, 1);
    let d = metrics.snapshot().delta_since(&before);
    expected.apply(&traced.acks);
    check_phase(r, &traced);

    let mut passes = layers::run_all(&rig.cluster, &client, inputs, &work.join("replay"));
    expected.apply(&passes.acks);
    r.attempted += passes.server.iter().map(|v| v.len() as u64).sum::<u64>();
    r.failed += passes.errors.len() as u64;
    r.errors.extend(passes.errors.iter().cloned());

    let phase_recovery_s = recover_and_check(r, &mut rig, inputs, &expected)?;

    let spans: Vec<trace::Span> = traced.spans.iter().chain(&passes.spans).copied().collect();
    write_spans(
        &PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.tsv", args.workload, args.seed)),
        &spans,
    );

    let (fu, ft) = (
        figures(&untraced, args.seconds),
        figures(&traced, args.seconds),
    );
    latency_lines(r, "untraced phase, quiet windows", &fu.lat);
    window_line(r, &fu, &untraced);
    latency_lines(r, "traced phase, quiet windows", &ft.lat);
    window_line(r, &ft, &traced);
    r.line(format!(
        "# set-up {:.3} s (load {:.3} s, checkpoint {:.3} s); recovery after the fixed tail {:.3} s, \
         after the phases {:.3} s; {} spans written",
        times.total_s,
        times.load_s,
        times.checkpoint_s,
        history.recovery.round_s[0],
        phase_recovery_s,
        spans.len()
    ));

    let us = |ns: &mut Vec<u64>| summarize(ns);
    let server: Vec<Summary> = passes.server.iter_mut().map(us).collect();
    let wal = us(&mut passes.wal_append);
    let dfs_append = us(&mut passes.dfs_append);
    let dfs_read = us(&mut passes.dfs_read);
    let idx_insert = us(&mut passes.index_insert);
    let idx_latest = us(&mut passes.index_latest);
    let idx_range = us(&mut passes.index_range);
    let rb_get = us(&mut passes.rb_get);

    // Client self time and wire time from the traced live spans.
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut calls_under: HashMap<&str, u64> = HashMap::new();
    let roots: HashMap<u64, &trace::Span> = traced
        .spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.id, s))
        .collect();
    let mut wire: Vec<i64> = Vec::new();
    for s in traced.spans.iter().filter(|s| s.name == "transport.call") {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
        let Some(root) = roots.get(&s.parent) else {
            continue;
        };
        *calls_under.entry(root.name).or_default() += 1;
        let direct = match root.name {
            "client.put" => server[0].p50_us,
            "client.get" => server[1].p50_us,
            _ => continue,
        };
        wire.push(s.dur() as i64 - (direct * 1000.0) as i64);
    }
    let mut client_self: Vec<u64> = roots
        .values()
        .filter(|s| s.name.starts_with("client."))
        .map(|s| {
            stats::self_time(
                s.start_ns,
                s.end_ns,
                children.get(&s.id).map_or(&[][..], Vec::as_slice),
            )
        })
        .collect();
    client_self.sort_unstable();
    wire.sort_unstable();
    let ops = traced.completed() as f64;
    let calls: u64 = calls_under.values().sum();
    let txns = traced.lat[3].len() as f64;

    let io = &passes.server_io;
    let n_server = |k: usize| passes.server[k].len() as f64;
    let hits = d.cache_hits as f64;
    let lookups = (d.cache_hits + d.cache_misses) as f64;
    let hit_ratio = ratio(hits, lookups);

    r.line("# per-layer metrics (traced run)");
    r.metric(
        "cluster.client_self_us.p50",
        stats::percentile(&client_self, 50.0) as f64 / 1000.0,
        "us",
    );
    r.metric("cluster.attempts_per_op", ratio(calls as f64, ops), "ratio");
    r.metric(
        "cluster.wire_us.p50",
        stats::percentile(&wire, 50.0) as f64 / 1000.0,
        "us",
    );
    r.metric(
        "cluster.wire_us.p99",
        stats::percentile(&wire, 99.0) as f64 / 1000.0,
        "us",
    );
    r.metric("cluster.rpc_retries", d.rpc_retries as f64, "count");
    r.metric("cluster.requests_shed", d.connections_shed as f64, "count");
    r.metric(
        "cluster.requests_expired",
        d.requests_expired as f64,
        "count",
    );
    r.metric("server.put_us.p50", server[0].p50_us, "us");
    r.metric("server.put_us.p99", server[0].p99_us, "us");
    r.metric("server.get_us.p50", server[1].p50_us, "us");
    r.metric("server.get_us.p99", server[1].p99_us, "us");
    r.metric("server.scan_us.p50", server[2].p50_us, "us");
    r.metric("server.txn_us.p50", server[3].p50_us, "us");
    r.metric(
        "server.put_self_us.p50",
        server[0].p50_us - wal.p50_us - idx_insert.p50_us,
        "us",
    );
    let reads_per_get = ratio(io[1].1 as f64, n_server(1));
    let get_below = idx_latest.p50_us + reads_per_get * dfs_read.p50_us + hit_ratio * rb_get.p50_us;
    r.metric("server.get_self_us.p50", server[1].p50_us - get_below, "us");
    r.metric("wal.append_us.p50", wal.p50_us, "us");
    r.metric("wal.append_us.p99", wal.p99_us, "us");
    r.metric("wal.self_us.p50", wal.p50_us - dfs_append.p50_us, "us");
    r.metric(
        "wal.entries_per_batch",
        ratio(d.wal_batched_entries as f64, d.wal_batches_committed as f64),
        "ratio",
    );
    r.metric("dfs.append_us.p50", dfs_append.p50_us, "us");
    r.metric("dfs.read_us.p50", dfs_read.p50_us, "us");
    r.metric(
        "dfs.appends_per_write",
        ratio(io[0].0 as f64, n_server(0)),
        "ratio",
    );
    r.metric("dfs.reads_per_get", reads_per_get, "ratio");
    r.metric(
        "dfs.reads_per_scan",
        ratio(io[2].1 as f64, n_server(2)),
        "ratio",
    );
    r.metric(
        "dfs.write_amp",
        ratio(d.seq_bytes_written as f64, traced.user_bytes_written as f64),
        "ratio",
    );
    r.metric(
        "dfs.read_amp",
        ratio(
            (d.rand_bytes_read + d.seq_bytes_read) as f64,
            traced.values_returned as f64 * gen::VALUE_BYTES as f64,
        ),
        "ratio",
    );
    r.metric("index.insert_us.p50", idx_insert.p50_us, "us");
    r.metric("index.latest_us.p50", idx_latest.p50_us, "us");
    r.metric("index.range_us.p50", idx_range.p50_us, "us");
    r.metric("read_buffer.hit_ratio", hit_ratio, "ratio");
    r.metric("read_buffer.get_us.p50", rb_get.p50_us, "us");
    r.metric(
        "txn.abort_ratio",
        ratio(d.txn_aborts as f64, (d.txn_commits + d.txn_aborts) as f64),
        "ratio",
    );
    r.metric(
        "txn.round_trips_per_commit",
        ratio(*calls_under.get("client.txn").unwrap_or(&0) as f64, txns),
        "ratio",
    );
    r.metric(
        "recovery.bytes_read",
        history.recovery.first_round_bytes as f64,
        "bytes",
    );
    r.metric("checkpoint.s", times.checkpoint_s, "s");
    r.metric(
        "trace.overhead_throughput_pct",
        100.0 * ratio(fu.throughput - ft.throughput, fu.throughput),
        "%",
    );
    for (k, kind) in Kind::ALL.iter().enumerate() {
        r.metric(
            format!("trace.overhead_{}_p50_us", kind.name()),
            ft.lat[k].p50_us - fu.lat[k].p50_us,
            "us",
        );
    }
    drop(client);
    drop(plain);
    rig.teardown();
    Ok(())
}

/// Spans as tab-separated `id parent req name start_ns end_ns` lines.
fn write_spans(path: &Path, spans: &[trace::Span]) {
    let mut out = String::with_capacity(spans.len() * 48);
    out.push_str("id\tparent\treq\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    let _ = std::fs::write(path, out);
}
