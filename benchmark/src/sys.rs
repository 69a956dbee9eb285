//! What the benchmark reads from the operating system.

use std::fs;
use std::process::Command;
use std::sync::OnceLock;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`, 100 on
/// every Linux port (no libc here to ask `sysconf`).
const TICK_US: u64 = 10_000;

/// Process CPU time (user + system, every thread) in microseconds.
pub fn cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, so 11 and 12 after the name.
    let rest = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 2..];
    let mut fields = rest.split(' ').skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("cpu ticks")
    };
    (tick() + tick()) * TICK_US
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// CPUs the process started with. Read once, before any thread pins itself:
/// `available_parallelism` counts the calling thread's own mask.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// `unknown` outside a git checkout (the driver's checkout is not one).
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// Outgoing loopback connections the kernel lets one client open to one
/// destination before it must reuse a port still in TIME_WAIT, and whether
/// it may reuse such a port (`tcp_tw_reuse` 1, or 2 = loopback only).
pub fn loopback_port_budget() -> (u64, bool) {
    let range = fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range").unwrap_or_default();
    let mut bounds = range
        .split_whitespace()
        .filter_map(|v| v.parse::<u64>().ok());
    let ports = match (bounds.next(), bounds.next()) {
        (Some(lo), Some(hi)) if hi >= lo => hi - lo + 1,
        _ => 28_232,
    };
    let reuse = fs::read_to_string("/proc/sys/net/ipv4/tcp_tw_reuse")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .is_some_and(|v| v != 0);
    (ports, reuse)
}

/// The CPU the servers under test run on: the last one, away from the
/// generators on CPU 0 wherever there are two.
pub fn server_cpu() -> usize {
    nproc() - 1
}

/// Pin the calling thread, and the threads it spawns afterwards, to one CPU.
/// Returns whether the kernel took the mask; elsewhere than Linux on x86-64
/// it does nothing and placement stays the scheduler's.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mut mask = [0u64; 16];
    mask[cpu / 64 % mask.len()] = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(0 = this thread, len, mask) only reads `len`
    // bytes at `mask`, which lives across the call; the `syscall`
    // instruction clobbers rcx and r11 besides writing rax, all declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// Run `f` on the servers' CPU, so the threads it spawns stay there, then
/// return the calling thread to the generators' CPU.
pub fn on_server_cpu<T>(f: impl FnOnce() -> T) -> T {
    pin_current_thread(server_cpu());
    let out = f();
    pin_current_thread(0);
    out
}
