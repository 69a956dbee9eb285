//! End-to-end CLI test: drives the compiled `dlr` binary through
//! keygen → info → encrypt → refresh → decrypt in a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn dlr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlr"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlr-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_file_roundtrip() {
    let dir = tmpdir("roundtrip");
    let keys = dir.join("keys");
    let pk = keys.join("pk.dlr");
    let sk1 = keys.join("sk1.dlr");
    let sk2 = keys.join("sk2.dlr");

    let out = dlr()
        .args(["keygen", "--out-dir", keys.to_str().unwrap(), "--n", "16", "--lambda", "64"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(pk.exists() && sk1.exists() && sk2.exists());

    let out = dlr()
        .args(["info", "--pk", pk.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("κ"), "{stdout}");

    let plain = dir.join("msg.txt");
    std::fs::write(&plain, b"top secret bytes\x00\xff").unwrap();
    let ct = dir.join("msg.ct");
    let out = dlr()
        .args([
            "encrypt", "--pk", pk.to_str().unwrap(),
            "--in", plain.to_str().unwrap(), "--out", ct.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // refresh rotates both share files in place
    let sk1_before = std::fs::read(&sk1).unwrap();
    let out = dlr()
        .args([
            "refresh", "--pk", pk.to_str().unwrap(),
            "--sk1", sk1.to_str().unwrap(), "--sk2", sk2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_ne!(std::fs::read(&sk1).unwrap(), sk1_before);

    // old ciphertext decrypts under the refreshed shares
    let recovered = dir.join("msg.out");
    let out = dlr()
        .args([
            "decrypt", "--pk", pk.to_str().unwrap(),
            "--sk1", sk1.to_str().unwrap(), "--sk2", sk2.to_str().unwrap(),
            "--in", ct.to_str().unwrap(), "--out", recovered.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&recovered).unwrap(),
        b"top secret bytes\x00\xff"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = dlr().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = dlr().args(["decrypt", "--pk", "/nonexistent"]).output().unwrap();
    assert!(!out.status.success());
    // a flag HELP does not list for the subcommand is named, not ignored
    let out = dlr().args(["serve-p2", "--shards", "4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shards"));
    // so is a malformed value of a listed one, before any fleet starts
    let out = dlr().args(["cluster", "--fault-ms", "10", "--downtime-ms", "abc"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--downtime-ms"));
    // and a replica index the fleet does not have
    let out = dlr()
        .args(["cluster", "--replicas", "2", "--fault-ms", "10", "--fault-replica", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fault-replica"));
    // help succeeds
    let out = dlr().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("keygen"));
}

#[test]
fn mismatched_keys_rejected() {
    let dir = tmpdir("mismatch");
    let keys_a = dir.join("a");
    let keys_b = dir.join("b");
    for k in [&keys_a, &keys_b] {
        let out = dlr()
            .args(["keygen", "--out-dir", k.to_str().unwrap(), "--n", "16", "--lambda", "64"])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let plain = dir.join("m.txt");
    std::fs::write(&plain, b"x").unwrap();
    let ct = dir.join("m.ct");
    assert!(dlr()
        .args([
            "encrypt", "--pk", keys_a.join("pk.dlr").to_str().unwrap(),
            "--in", plain.to_str().unwrap(), "--out", ct.to_str().unwrap(),
        ])
        .output()
        .unwrap()
        .status
        .success());
    // decrypting with instance B's shares: MAC failure, nonzero exit
    let out = dlr()
        .args([
            "decrypt", "--pk", keys_b.join("pk.dlr").to_str().unwrap(),
            "--sk1", keys_b.join("sk1.dlr").to_str().unwrap(),
            "--sk2", keys_b.join("sk2.dlr").to_str().unwrap(),
            "--in", ct.to_str().unwrap(), "--out", dir.join("out").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
