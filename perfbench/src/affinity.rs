//! Pins a generator's threads to one CPU.
//!
//! `prodcons` and `keyed-zipf` run one thread at a time by construction
//! (rounds and turns), so sharing one CPU costs them nothing. Left free,
//! the kernel sometimes woke the sleeping side on the other vCPU and
//! sometimes on the same one, and every element then crossed between
//! caches or did not: remove latencies moved by a quarter from run to run
//! with that choice alone.

use std::ffi::c_int;

/// Words in glibc's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// The highest-numbered CPU the calling thread may run on, if the kernel
/// says. (CPU 0 tends to take more of the interrupts.)
pub fn last_allowed_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, bits)| **bits != 0)?;
    Some(word * 64 + 63 - bits.leading_zeros() as usize)
}

/// Pins the calling thread to `cpu`. Without a CPU, or if the kernel
/// refuses, the thread runs where the kernel puts it.
pub fn pin(cpu: Option<usize>) {
    let Some(cpu) = cpu.filter(|&cpu| cpu < MASK_WORDS * 64) else { return };
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
