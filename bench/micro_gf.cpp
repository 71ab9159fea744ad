// E8 -- micro benchmarks for the finite-field substrate (google-benchmark).
//
// These are the instruction-level hot loops of the library: scalar GF
// multiply, axpy over coefficient rows (via the runtime-dispatched backend),
// and the word-parallel GF(2) XOR the bit-packed decoder uses (dispatched:
// inline for short rows, the backend for long ones).  Every
// available GF kernel backend (scalar / ssse3 / avx2 / gfni) gets its own
// axpy, scale and xor_words series, registered at startup, so one run prints
// the scalar-vs-SIMD throughput table directly.
//
// AG_BENCH_JSON=<path> writes google-benchmark's JSON report (including
// bytes_per_second for the throughput benches) to <path>, same knob as the
// table harnesses.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gf/backend/backend.hpp"
#include "gf/bulk_ops.hpp"
#include "gf/gf2m.hpp"
#include "micro_main.hpp"
#include "sim/rng.hpp"

namespace {

using ag::gf::GF256;
using ag::gf::GF65536;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  ag::sim::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform(256));
  return v;
}

void BM_GF256_Mul(benchmark::State& state) {
  const auto a = random_bytes(4096, 1);
  const auto b = random_bytes(4096, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GF256::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_GF256_Mul);

void BM_GF256_Inv(benchmark::State& state) {
  const auto a = random_bytes(4096, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint8_t x = a[i & 4095];
    benchmark::DoNotOptimize(GF256::inv(x ? x : 1));
    ++i;
  }
}
BENCHMARK(BM_GF256_Inv);

void BM_GF65536_Mul(benchmark::State& state) {
  ag::sim::Rng rng(4);
  std::vector<std::uint16_t> a(4096), b(4096);
  for (auto& x : a) x = static_cast<std::uint16_t>(rng.uniform(65536));
  for (auto& x : b) x = static_cast<std::uint16_t>(rng.uniform(65536));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GF65536::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_GF65536_Mul);

// axpy through the public dispatcher (whatever backend is active, i.e. what
// the decoders actually get).
void BM_Axpy_Dispatched(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(len, 5);
  const auto src = random_bytes(len, 6);
  for (auto _ : state) {
    ag::gf::axpy<GF256>(dst, src, std::uint8_t{37});
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Axpy_Dispatched)->Arg(64)->Arg(1024)->Arg(16384);

// xor_words through the public dispatcher: spans of up to
// gf::kInlineXorWords words take the inline loop, longer ones the backend.
void BM_XorWords_Dispatched(benchmark::State& state) {
  const auto words = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(11);
  std::vector<std::uint64_t> dst(words), src(words);
  for (auto& x : dst) x = rng();
  for (auto& x : src) x = rng();
  for (auto _ : state) {
    ag::gf::xor_words(dst, src);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 8);
}
BENCHMARK(BM_XorWords_Dispatched)->Arg(1)->Arg(2)->Arg(4)->Arg(64)->Arg(1024);

// Per-backend kernel series, registered in main() for each backend this
// build + CPU supports.
void BM_Axpy_Backend(benchmark::State& state,
                     const ag::gf::backend::KernelTable* kt) {
  const auto len = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(len, 7);
  const auto src = random_bytes(len, 8);
  for (auto _ : state) {
    kt->axpy_u8(dst.data(), src.data(), len, std::uint8_t{37});
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_Scale_Backend(benchmark::State& state,
                      const ag::gf::backend::KernelTable* kt) {
  const auto len = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(len, 9);
  for (auto _ : state) {
    kt->scale_u8(dst.data(), len, std::uint8_t{37});
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_XorWords_Backend(benchmark::State& state,
                         const ag::gf::backend::KernelTable* kt) {
  const auto words = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(10);
  std::vector<std::uint64_t> dst(words), src(words);
  for (auto& x : dst) x = rng();
  for (auto& x : src) x = rng();
  for (auto _ : state) {
    kt->xor_words(dst.data(), src.data(), words);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 8);
}

void register_backend_benches() {
  namespace be = ag::gf::backend;
  for (const be::Backend b : be::available_backends()) {
    const be::KernelTable* kt = be::table_for(b);
    const std::string name = be::to_string(b);
    benchmark::RegisterBenchmark(("BM_Axpy_" + name).c_str(), BM_Axpy_Backend, kt)
        ->Arg(64)
        ->Arg(1024)
        ->Arg(16384);
    benchmark::RegisterBenchmark(("BM_Scale_" + name).c_str(), BM_Scale_Backend, kt)
        ->Arg(1024);
    benchmark::RegisterBenchmark(("BM_XorWords_" + name).c_str(),
                                 BM_XorWords_Backend, kt)
        ->Arg(4)
        ->Arg(64)
        ->Arg(1024);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return agbench::run_micro_main(argc, argv, register_backend_benches);
}
