// Micro benchmarks for the wire codec (net/wire.hpp): encode and
// decode throughput per packet field, in bytes/second of FRAME traffic --
// what bounds a UdpTransport's per-datagram CPU cost on the socket hot path.
//
// Shapes: k = 64 coefficients (the file-swarm default) with a 1 KiB-class
// payload per field, plus a small-frame series (k = 32, 32-symbol payload,
// the UDP e2e acceptance shape) to expose the fixed per-frame overhead.
//
// AG_BENCH_JSON=<path> writes google-benchmark's JSON report (including
// bytes_per_second) to <path>; CI runs this as BENCH_codec.json and uploads
// it as an artifact.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "micro_main.hpp"
#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ag;

template <typename F>
linalg::DensePacket<F> random_dense(std::size_t k, std::size_t len, std::uint64_t seed) {
  sim::Rng rng(seed);
  linalg::DensePacket<F> p;
  p.coeffs.resize(k);
  p.payload.resize(len);
  for (auto& c : p.coeffs) c = static_cast<typename F::value_type>(rng.uniform(F::order));
  for (auto& s : p.payload) s = static_cast<typename F::value_type>(rng.uniform(F::order));
  return p;
}

linalg::BitPacket random_bit(std::size_t k, std::size_t words, std::uint64_t seed) {
  sim::Rng rng(seed);
  linalg::BitPacket p;
  p.coeffs.resize((k + 63) / 64);
  p.payload.resize(words);
  for (auto& w : p.coeffs) w = rng();
  if (k % 64 != 0 && !p.coeffs.empty()) {
    p.coeffs.back() &= (std::uint64_t{1} << (k % 64)) - 1;
  }
  for (auto& w : p.payload) w = rng();
  return p;
}

template <typename P>
void bench_encode(benchmark::State& state, const P& pkt, std::size_t k) {
  std::vector<std::uint8_t> frame;
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = net::encode_into(pkt, k, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}

template <typename P>
void bench_decode(benchmark::State& state, const P& pkt, std::size_t k) {
  std::vector<std::uint8_t> frame;
  const std::size_t bytes = net::encode_into(pkt, k, frame);
  P out;
  for (auto _ : state) {
    const auto st = net::decode_into(std::span<const std::uint8_t>(frame), k,
                                     pkt.payload.size(), out);
    if (st != net::DecodeStatus::Ok) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(out.coeffs.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}

// k = 64 coefficients, ~1 KiB payload per field (128 words / 1024 symbols),
// the "bulk block" shape.
void BM_Encode_Gf2Bit(benchmark::State& s) { bench_encode(s, random_bit(64, 128, 1), 64); }
void BM_Decode_Gf2Bit(benchmark::State& s) { bench_decode(s, random_bit(64, 128, 1), 64); }
void BM_Encode_Gf16(benchmark::State& s) {
  bench_encode(s, random_dense<gf::GF16>(64, 1024, 3), 64);
}
void BM_Decode_Gf16(benchmark::State& s) {
  bench_decode(s, random_dense<gf::GF16>(64, 1024, 3), 64);
}
void BM_Encode_Gf256(benchmark::State& s) {
  bench_encode(s, random_dense<gf::GF256>(64, 1024, 4), 64);
}
void BM_Decode_Gf256(benchmark::State& s) {
  bench_decode(s, random_dense<gf::GF256>(64, 1024, 4), 64);
}
void BM_Encode_Gf65536(benchmark::State& s) {
  bench_encode(s, random_dense<gf::GF65536>(64, 512, 5), 64);
}
void BM_Decode_Gf65536(benchmark::State& s) {
  bench_decode(s, random_dense<gf::GF65536>(64, 512, 5), 64);
}

// The UDP e2e acceptance shape: k = 32, 32-byte blocks over GF(256).  Small
// frames, so this measures fixed per-frame overhead, not memcpy bandwidth.
void BM_Encode_Gf256_SwarmFrame(benchmark::State& s) {
  bench_encode(s, random_dense<gf::GF256>(32, 32, 6), 32);
}
void BM_Decode_Gf256_SwarmFrame(benchmark::State& s) {
  bench_decode(s, random_dense<gf::GF256>(32, 32, 6), 32);
}

BENCHMARK(BM_Encode_Gf2Bit);
BENCHMARK(BM_Decode_Gf2Bit);
BENCHMARK(BM_Encode_Gf16);
BENCHMARK(BM_Decode_Gf16);
BENCHMARK(BM_Encode_Gf256);
BENCHMARK(BM_Decode_Gf256);
BENCHMARK(BM_Encode_Gf65536);
BENCHMARK(BM_Decode_Gf65536);
BENCHMARK(BM_Encode_Gf256_SwarmFrame);
BENCHMARK(BM_Decode_Gf256_SwarmFrame);

}  // namespace

int main(int argc, char** argv) { return agbench::run_micro_main(argc, argv); }
