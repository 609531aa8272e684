//! Fixture twin: `unsafe` confined to the allowlisted allocator test file,
//! with a `# Safety` doc section on the public fn and `// SAFETY:` comments
//! on every site.

/// Reads the byte at `p`.
///
/// # Safety
///
/// `p` must be valid for reads.
pub unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: the caller guarantees `p` is valid for reads.
    unsafe { *p }
}

fn caller(byte: &u8) -> u8 {
    // SAFETY: `byte` is a live reference, so the pointer is valid.
    unsafe { read_raw(byte as *const u8) }
}
