//! End-to-end run of the benchmark (`--trace 0`), on the system allocator.

fn main() -> std::process::ExitCode {
    proverguard_perfbench::main_with(None)
}
