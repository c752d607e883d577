//! The environment block every result carries, so a number read months
//! later still says what machine and code produced it.

use crate::json::Obj;
use std::path::Path;
use std::process::Command;

/// First `/proc/cpuinfo` value for `key`.
fn cpuinfo(key: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Output of a short command, trimmed; `None` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of every file under `dirs` (sorted paths and bytes):
/// identifies the measured source when the checkout has no git
/// metadata.
pub fn source_digest(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x} over {} files", files.len())
}

/// Facts about the run that do not depend on the workload.
pub struct Env {
    pub threshold: f32,
    pub escalation_share: f64,
    pub batch_chunk: usize,
}

/// The environment block as a JSON object.
pub fn block(root: &Path, workload: &str, seed: u64, env: &Env) -> Obj {
    let flags = cpuinfo("flags").unwrap_or_default();
    let simd: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| {
            f.starts_with("avx") || f.starts_with("sse") || ["popcnt", "bmi2", "asimd"].contains(f)
        })
        .collect();
    let git = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
        .flatten();
    let mut o = Obj::new();
    o.str(
        "cpu_model",
        &cpuinfo("model name").unwrap_or_else(|| "unknown".into()),
    );
    o.str("cpu_simd_flags", &simd.join(" "));
    o.str("cpu_flags", &flags);
    o.num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    o.str(
        "rustc",
        &command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    o.str(
        "git_rev",
        git.as_deref()
            .unwrap_or("unavailable (checkout has no git metadata)"),
    );
    o.str(
        "source_digest",
        &source_digest(root, &["crates", "compat", "perfbench/src"]),
    );
    o.str("kernel_dispatch", &hotspot_bnn::dispatch_report().summary());
    o.num("batch_chunk", env.batch_chunk as f64);
    o.num("model_levels", crate::inputs::LEVELS as f64);
    o.num("cascade_threshold", f64::from(env.threshold));
    o.num("corpus_escalation_share", env.escalation_share);
    o.str("workload", workload);
    o.int("seed", seed);
    o
}
