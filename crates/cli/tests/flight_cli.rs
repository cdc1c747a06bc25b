//! End-to-end tests of `amgt-cli --flight` and `--version`: a divergent
//! system dumps a retained flight trace named by the printed trace id; a
//! healthy run retains nothing; `--version --verbose` reports the same
//! build-identity block the server's `/version` route serves.

use std::process::Command;

/// Write a 2D Laplacian shifted to negative definiteness (`L - 9 I`) as a
/// Matrix Market file: plain V-cycles diverge on it.
fn write_divergent_mtx(path: &std::path::Path) {
    let n = 10usize;
    let idx = |i: usize, j: usize| i * n + j;
    let mut entries = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let r = idx(i, j);
            entries.push((r, r, 4.0 - 9.0));
            if i > 0 {
                entries.push((r, idx(i - 1, j), -1.0));
            }
            if i + 1 < n {
                entries.push((r, idx(i + 1, j), -1.0));
            }
            if j > 0 {
                entries.push((r, idx(i, j - 1), -1.0));
            }
            if j + 1 < n {
                entries.push((r, idx(i, j + 1), -1.0));
            }
        }
    }
    let mut text = String::from("%%MatrixMarket matrix coordinate real general\n");
    text.push_str(&format!("{} {} {}\n", n * n, n * n, entries.len()));
    for (r, c, v) in entries {
        text.push_str(&format!("{} {} {v}\n", r + 1, c + 1));
    }
    std::fs::write(path, text).unwrap();
}

#[test]
fn flight_flag_dumps_a_trace_on_bad_verdict_and_nothing_when_healthy() {
    let dir = std::env::temp_dir().join(format!("amgt-flight-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("divergent.mtx");
    write_divergent_mtx(&mtx);

    // Divergent run: the trace id is printed up front, and the bad verdict
    // dumps `amgt-flight-<id>.json` into the working directory.
    let out = Command::new(env!("CARGO_BIN_EXE_amgt-cli"))
        .args(["--mtx", mtx.to_str().unwrap(), "--flight", "--iters", "40"])
        .current_dir(&dir)
        .output()
        .expect("amgt-cli runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "cli failed:\n{stdout}");

    let id_line = stdout
        .lines()
        .find(|l| l.starts_with("flight: recording under trace id "))
        .expect("trace id printed");
    let hex = id_line.rsplit(' ').next().unwrap();
    assert_eq!(hex.len(), 16, "trace id is 16 hex digits: {hex}");
    assert!(
        stdout.contains("flight: verdict Diverged -> dumped"),
        "{stdout}"
    );

    let dump = dir.join(format!("amgt-flight-{hex}.json"));
    let text = std::fs::read_to_string(&dump).expect("flight dump written");
    assert!(text.contains("\"verdict\":\"Diverged\""), "{text}");
    assert!(text.contains(&format!("\"trace_id\":\"{hex}\"")));
    assert!(text.contains("\"reason\":\"Verdict\""));
    assert!(text.contains("\"residuals\":[{"));
    assert!(text.contains("\"kind\":\"Divergence\""));

    // Healthy run in the same directory: trace id printed, nothing dumped.
    let before: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    let out = Command::new(env!("CARGO_BIN_EXE_amgt-cli"))
        .args(["--poisson2d", "16", "--flight"])
        .current_dir(&dir)
        .output()
        .expect("amgt-cli runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "cli failed:\n{stdout}");
    assert!(
        stdout.contains("flight: verdict Converged -- trace not retained"),
        "{stdout}"
    );
    let after: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(before.len(), after.len(), "healthy run must not dump");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_flag_reports_build_identity() {
    let out = Command::new(env!("CARGO_BIN_EXE_amgt-cli"))
        .args(["--version"])
        .output()
        .expect("amgt-cli runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.starts_with("amgt-cli "), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_amgt-cli"))
        .args(["--version", "--verbose"])
        .output()
        .expect("amgt-cli runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    for key in ["version:", "git:", "exec:", "simd:"] {
        assert!(stdout.contains(key), "missing {key} in:\n{stdout}");
    }
}
