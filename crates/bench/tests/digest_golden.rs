//! Golden program digests and the served fields that depend on them.
//!
//! The translation cache keys each program by its content digest: the
//! base address followed by the encoded image, or, for a program whose
//! packets cannot be encoded, each packet's address and its instructions'
//! debug text. `majc-serve` answers `simulate` and `assemble` jobs with
//! `packets` and `digest` fields and reports each job's cache hit. This
//! test pins all of them on a fixed program set, so a change to how or
//! when the digest is computed that moves one value fails `cargo test`.
//! A change that is *meant* to move them updates the tables and says why.
//!
//! Inputs: the 16 fast suite kernels (`vld` cannot be encoded, so it pins
//! the debug-text path), `corpus_cases(1)`, and a slice of each
//! differential-fuzz stream: the bench fuzzer's and the one behind
//! serve's `fuzz` verb. Every served job goes through the wire format:
//! its request line is rendered and parsed back, and its response is
//! rendered as the line a client would read.

use std::sync::Arc;

use majc_bench::diff::fuzz_program;
use majc_bench::farm::shard_seed;
use majc_core::XlateCache;
use majc_isa::Program;
use majc_kernels::suite::{corpus_cases, fast_cases, SuiteCase};
use majc_serve::jobs::fuzz_program as serve_fuzz_program;
use majc_serve::{Engine, ExecCtx, JobSpec, Request, Response, SimSpec, Val};

/// Programs in the pinned fuzz slice (seeds as `reproduce lintfacts`
/// batch 0 derives them).
const FUZZ_PROGRAMS: u64 = 24;

/// Packet budget of every served `simulate` job; each program halts well
/// inside it.
const BUDGET: u64 = 50_000_000;

/// Programs in the pinned slice of serve's fuzz stream (seeds `0..24`).
const SERVE_FUZZ_PROGRAMS: u64 = 24;

/// Served `fuzz` jobs pinned line for line (seeds `0..16`): every stream
/// flavour and the `seed % 4 == 3` corpus mode.
const SERVE_FUZZ_JOBS: u64 = 16;

/// Packet budget of every pinned `fuzz` job.
const FUZZ_JOB_BUDGET: u64 = 20_000;

/// The translation cache's key for `prog`.
fn digest(prog: &Program) -> u64 {
    prog.digest()
}

fn cases() -> Vec<SuiteCase> {
    let mut cases = fast_cases();
    cases.extend(corpus_cases(1));
    cases
}

/// `name digest encodes` per program: `encodes` says which of the two
/// digest paths the program takes.
fn program_line(name: &str, prog: &Program) -> String {
    let encodes = majc_isa::encode_program(prog.packets()).is_ok();
    format!("{name} {:016x} {encodes}\n", digest(prog))
}

#[test]
fn program_digests_match_recorded_values() {
    let mut actual = String::new();
    for c in cases() {
        actual += &program_line(&c.name, &c.prog);
    }
    for k in 0..FUZZ_PROGRAMS {
        let prog = fuzz_program(shard_seed(0xFA23_5EED, k));
        actual += &program_line(&format!("fuzz-{k}"), &prog);
    }
    assert_eq!(actual, GOLDEN_PROGRAMS, "program digests moved; the actual table is on the left");
}

/// Serve's fuzz stream: its program digests, and the full response line
/// of each `fuzz` job. A `fuzz` job never translates through the
/// context's cache, so the private cache stays untouched.
#[test]
fn serve_fuzz_stream_matches_recorded_values() {
    let mut programs = String::new();
    for seed in 0..SERVE_FUZZ_PROGRAMS {
        programs += &program_line(&format!("serve-fuzz-{seed}"), &serve_fuzz_program(seed));
    }
    assert_eq!(
        programs, GOLDEN_SERVE_FUZZ_PROGRAMS,
        "serve fuzz digests moved; the actual table is on the left"
    );

    let cache = Arc::new(XlateCache::new(64));
    let ctx = ExecCtx::with_xlate_cache(Arc::clone(&cache));
    let mut lines = String::new();
    for seed in 0..SERVE_FUZZ_JOBS {
        let spec = JobSpec::Fuzz { seed, budget: FUZZ_JOB_BUDGET };
        let (line, _) = serve(&ctx, &format!("fuzz-{seed}"), spec);
        lines += &line;
        lines += "\n";
    }
    assert_eq!(
        lines, GOLDEN_FUZZ_LINES,
        "served fuzz lines moved; the actual lines are on the left"
    );
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.resident), (0, 0, 0));
}

/// Serve `spec` through the wire format: render the request line, parse
/// it back, execute it, and render the response line.
fn serve(ctx: &ExecCtx, id: &str, spec: JobSpec) -> (String, Response) {
    let line = Request::Job { id: id.into(), spec }.to_line();
    let Ok(Request::Job { id, spec }) = Request::parse_line(&line) else {
        panic!("{id}: request line does not parse back: {line}")
    };
    let status = ctx.execute(&spec, None);
    let out = Response { id, status }.to_line();
    let resp = Response::parse_line(&out).expect("response line parses");
    (out, resp)
}

fn field(r: &Response, name: &str) -> String {
    match r.field(name) {
        Some(Val::U64(n)) => n.to_string(),
        Some(Val::Str(s)) => s.clone(),
        Some(Val::Bool(b)) => b.to_string(),
        None => panic!("{}: no `{name}` field: {r:?}", r.id),
    }
}

/// Each program is simulated and its disassembly assembled twice: the
/// first request of each pair misses its cache, the second hits it, and
/// both must serve the same `packets` and `digest`.
#[test]
fn served_fields_match_recorded_values() {
    let cache = Arc::new(XlateCache::new(64));
    let ctx = ExecCtx::with_xlate_cache(Arc::clone(&cache));
    let mut table = String::new();
    let mut lines = String::new();
    for c in cases() {
        let sim = JobSpec::Simulate(SimSpec {
            kernel: Some(c.name.clone()),
            source: None,
            engine: Engine::Func,
            budget: BUDGET,
            checkpoint: false,
            resume: None,
        });
        let asm = JobSpec::Assemble { source: majc_asm::program_to_string(&c.prog) };
        let mut row = c.name.clone();
        for (kind, spec, hit) in [("sim", sim, "xlate_hit"), ("asm", asm, "cached")] {
            let (cold_line, cold) = serve(&ctx, &format!("{}-{kind}-0", c.name), spec.clone());
            let (warm_line, warm) = serve(&ctx, &format!("{}-{kind}-1", c.name), spec);
            assert_eq!(field(&cold, hit), "false", "{cold_line}");
            assert_eq!(field(&warm, hit), "true", "{warm_line}");
            for name in ["packets", "digest"] {
                assert_eq!(field(&cold, name), field(&warm, name), "{cold_line} / {warm_line}");
            }
            row += &format!(" {kind} {} {}", field(&cold, "packets"), field(&cold, "digest"));
            lines += &cold_line;
            lines += &warm_line;
        }
        table += &row;
        table += "\n";
    }
    assert_eq!(table, GOLDEN_SERVED, "served fields moved; the actual table is on the left");
    assert_eq!(
        format!("{:016x}", majc_mem::fnv1a(lines.as_bytes())),
        GOLDEN_LINES_DIGEST,
        "served response lines moved"
    );
    let stats = cache.stats();
    let n = cases().len() as u64;
    assert_eq!((stats.hits, stats.misses, stats.evictions), (n, n, 0));
}

const GOLDEN_PROGRAMS: &str = "\
biquad 9132d759f4645ad8 true
fir d8d99a6d82242fee true
cfir 47ad951c4d06d186 true
lms 41a73567d88fd7e6 true
maxsearch d95ab4f78e23ef61 true
fft-radix2 b7062575f8dd92b7 true
fft-radix4 067b682cf59e3f0b true
bitrev c4c3fe33ee5d36f9 true
idct 36ac58297632f23e true
dct 027bde87674e6cf1 true
vld c80d7272e223ef98 false
motion 985f1a1a81edcaaa true
dmatmul 90d38a976f76c995 true
peak-flops 44e6f9756b801d4f true
peak-ops c839993c6826c38e true
transform-light 15e1bc8b9718e5cc true
list-8ee4c5be c35618fa8c1490f8 true
bst-044aa2c5 2d00fec81760d896 true
alloc-59cad932 19303185a97028c5 true
vm-dense-addfdbcb c15acabfcbf6571f true
vm-sparse-9452de70 8774c6f25701a9e4 true
calls-28a9c327 62191905c514fbe7 true
branchy-70882a1d 3fec8a5cdb48e7fe true
fuzz-0 e01ad088cb194086 true
fuzz-1 b1169811e0243449 true
fuzz-2 60c8c191aa18090d true
fuzz-3 f57114bc649fbce6 true
fuzz-4 d1771393ba9137b6 true
fuzz-5 70fb4e65e915fb02 true
fuzz-6 1fbda2c84f540ce1 true
fuzz-7 a3c838f89aa01356 true
fuzz-8 2db9ced126f84f69 true
fuzz-9 6de3bf0d631b8726 true
fuzz-10 e2c0b9c4068e9452 true
fuzz-11 288d799f29af6773 true
fuzz-12 b3033031125701b5 true
fuzz-13 ffc8bb3970c04723 true
fuzz-14 9ba9806f0f708b67 true
fuzz-15 2e6748a1c5dfcbca true
fuzz-16 dd1fac86ac2367bc true
fuzz-17 39e153b3b1900dbd true
fuzz-18 604a3a8cac630ee3 true
fuzz-19 788195f38529b36f true
fuzz-20 08fbde48985c4246 true
fuzz-21 6139729289680289 true
fuzz-22 3ac2e39f9ad93b0c true
fuzz-23 3c1f4cb1185fff6c true
";

const GOLDEN_SERVED: &str = "\
biquad sim 1042 987108768e6c067e asm 1042 608a3bec9e1ac3d6
fir sim 2336 436a0349fcb21951 asm 161 79b7b0c647f81119
cfir sim 6921 eca4cc988267bbc3 asm 225 396f4534d26ac05f
lms sim 39 375120bd38352a3a asm 39 b8d3f8ec8db027d7
maxsearch sim 50 46e283b5d52da692 asm 50 2e4ed66ec18a7f76
fft-radix2 sim 54319 7c705e109ab61f46 asm 27 0cefcf9898181dfb
fft-radix4 sim 31783 fcc45cdfc8b06380 asm 43 1ec58b4b0c3b131c
bitrev sim 2860 7a0802190fb3cc7c asm 31 e190414ff3d09b4c
idct sim 404 4f3e8371e1339865 asm 404 1cd429c0755b46a9
dct sim 439 3284bff4d174f5bb asm 439 e5a9925a4e7aa788
vld sim 7940 94a1b3d88d8eb3b6 asm 39 85ecfc537e8f2ecf
motion sim 5238 9a74fc11030ffb89 asm 406 994e2939b7c6a608
dmatmul sim 775 7062a347ace010d4 asm 775 d46e84084d1608ce
peak-flops sim 3244 9c359227d7bc87a4 asm 94 edf6f816465c9fc6
peak-ops sim 3210 1452e93f8b3e60fc asm 60 c361d7d7dcd3dfeb
transform-light sim 397 ef83864212a1c1c4 asm 77 e81361aa1cf46710
list-8ee4c5be sim 2156 73b0da15f7c3472a asm 84 ad86be49ea345be0
bst-044aa2c5 sim 1721 689203dd366bb410 asm 67 4bb785dc13486ec7
alloc-59cad932 sim 847 a270e11092fc1cd0 asm 69 40dfbe9f3c9f8c53
vm-dense-addfdbcb sim 746 e4b4ab3a336874b4 asm 68 2bec6bd6db6e5766
vm-sparse-9452de70 sim 1343 db23000e9accbc77 asm 78 a90a223460d1cd2c
calls-28a9c327 sim 3784 79bcbaf4e4b1fc65 asm 135 bd442a67d24c3660
branchy-70882a1d sim 59543 48e0c334d98cfddf asm 69 640da9f08e91c5f3
";

/// FNV-1a over every response line the served test renders, in order.
const GOLDEN_LINES_DIGEST: &str = "e56b2abe6699abad";

const GOLDEN_SERVE_FUZZ_PROGRAMS: &str = "\
serve-fuzz-0 ba2c92f04a9c2655 true
serve-fuzz-1 733e2414edcfec72 true
serve-fuzz-2 da45e74db255e80a true
serve-fuzz-3 64963ddcc1a13a23 true
serve-fuzz-4 a8f5fde245bed13c true
serve-fuzz-5 51c236bad7a7566c true
serve-fuzz-6 8ed936bf55b0a9d0 true
serve-fuzz-7 056d6e1cbfae09e7 true
serve-fuzz-8 412ee17ace98996e true
serve-fuzz-9 f4fda96a6b3198b7 true
serve-fuzz-10 40ad7091de434340 true
serve-fuzz-11 82f57d09749a6487 true
serve-fuzz-12 cb3207d5932c2e2f true
serve-fuzz-13 25cdbb94ff9aa65c true
serve-fuzz-14 ce9dd27b58f47e9d true
serve-fuzz-15 1aea19b8191665f0 true
serve-fuzz-16 21817bbbf911c1d3 true
serve-fuzz-17 037a801c530883c2 true
serve-fuzz-18 2fd93e3d44091ade true
serve-fuzz-19 bc7dd23455937f4e true
serve-fuzz-20 5827bd93261a581f true
serve-fuzz-21 b235605f6113e9d3 true
serve-fuzz-22 a539573771f0aa89 true
serve-fuzz-23 825a3d31a16af6a5 true
";

const GOLDEN_FUZZ_LINES: &str = "\
{\"id\":\"fuzz-0\",\"status\":\"ok\",\"packets\":2,\"cycles\":6,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-1\",\"status\":\"ok\",\"packets\":25,\"cycles\":43,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-2\",\"status\":\"ok\",\"packets\":15,\"cycles\":28,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-3\",\"status\":\"ok\",\"family\":\"list\",\"packets\":813,\"cycles\":1275,\"check_ok\":true,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-4\",\"status\":\"ok\",\"packets\":6,\"cycles\":10,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-5\",\"status\":\"ok\",\"packets\":4,\"cycles\":13,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-6\",\"status\":\"ok\",\"packets\":9,\"cycles\":16,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-7\",\"status\":\"ok\",\"family\":\"bst\",\"packets\":1246,\"cycles\":2076,\"check_ok\":true,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-8\",\"status\":\"ok\",\"packets\":33,\"cycles\":48,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-9\",\"status\":\"ok\",\"packets\":12,\"cycles\":20,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-10\",\"status\":\"ok\",\"packets\":35,\"cycles\":78,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-11\",\"status\":\"ok\",\"family\":\"alloc\",\"packets\":580,\"cycles\":875,\"check_ok\":true,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-12\",\"status\":\"ok\",\"packets\":14,\"cycles\":19,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-13\",\"status\":\"ok\",\"packets\":3,\"cycles\":10,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-14\",\"status\":\"ok\",\"packets\":3,\"cycles\":8,\"diverged\":false,\"divergence\":\"\"}
{\"id\":\"fuzz-15\",\"status\":\"ok\",\"family\":\"vm-dense\",\"packets\":754,\"cycles\":1187,\"check_ok\":true,\"diverged\":false,\"divergence\":\"\"}
";
