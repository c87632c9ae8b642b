//! Host metadata stamped on every result, and the process's peak RSS.

use crate::spec::Spec;
use cdf_core::Provenance;
use cdf_sim::json::{field, Json};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> Option<String> {
    read("/proc/cpuinfo")?
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn governor() -> Option<String> {
    read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor").map(|g| g.trim().to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current RSS, so a later
/// [`peak_rss_mb`] covers only what runs after the reset. A no-op where
/// `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn opt_str(v: Option<String>) -> Json {
    v.map_or(Json::Null, Json::from)
}

/// Provenance (commit and dirty flag, toolchain, host triple), CPU model,
/// hardware threads, frequency governor when readable, the seed and the
/// window sizes.
pub fn metadata(spec: &Spec) -> Json {
    let p = Provenance::capture();
    let e = &spec.eval;
    Json::Obj(vec![
        field("git_commit", opt_str(p.git_commit)),
        field("git_dirty", p.git_dirty.map_or(Json::Null, Json::from)),
        field("rustc", opt_str(p.rustc_version)),
        field("host", p.host),
        field("cpu_model", opt_str(cpu_model())),
        field(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        ),
        field("governor", opt_str(governor())),
        field("seed", e.gen.seed),
        field("scale", e.gen.scale),
        field("warmup_instructions", e.warmup_instructions),
        field("measure_instructions", e.measure_instructions),
    ])
}
