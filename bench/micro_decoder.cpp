// E8 -- micro benchmarks for the incremental decoders (google-benchmark):
// insert cost (the per-received-packet work of every gossip node) and
// random_combination cost (the per-transmission work), dense GF(256) vs
// bit-packed GF(2).  The GF(2) combination runs from random full-rank rows,
// with and without a payload; BM_BitInsertDependent is the rejected insert
// at rank k/2.  Both run on whatever GF kernel backend the dispatcher
// selected (force with AG_GF_BACKEND to compare).
//
// The BM_Stream* cases use the stream-gf256 benchmark shape (GF(256),
// k = 16, 1 KiB payloads): one recoded packet, and an insert that is helpful
// (the mean over a fill from rank 0 to 16), dependent (at rank 8) or into a
// full-rank decoder.  The combination benches reuse one output packet, as
// the engines do.  BM_StreamCombineCoeffs and BM_StreamInsertFromSender* are
// the payload-on-demand pair the streaming swarm runs instead: the
// coefficients alone, then an insert that builds the payload from the
// sender's rows only for a helpful packet.
//
// AG_BENCH_JSON=<path> writes google-benchmark's JSON report to <path>, same
// knob as the table harnesses.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "micro_main.hpp"

#include "linalg/bit_decoder.hpp"
#include "linalg/dense_decoder.hpp"
#include "gf/gf2m.hpp"
#include "sim/rng.hpp"

namespace {

using ag::gf::GF256;
using ag::linalg::BitDecoder;
using ag::linalg::DenseDecoder;

void BM_DenseInsertToFullRank(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(11);
  // Pre-generate random packets from a full-rank source.
  DenseDecoder<GF256> src(k, 0);
  for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
  std::vector<DenseDecoder<GF256>::packet_type> packets;
  for (std::size_t i = 0; i < 4 * k; ++i) packets.push_back(*src.random_combination(rng));

  for (auto _ : state) {
    DenseDecoder<GF256> d(k, 0);
    std::size_t i = 0;
    while (!d.full_rank() && i < packets.size()) d.insert(packets[i++]);
    benchmark::DoNotOptimize(d.rank());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_DenseInsertToFullRank)->Arg(32)->Arg(128)->Arg(512);

void BM_BitInsertToFullRank(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(12);
  BitDecoder src(k, 0);
  for (std::size_t i = 0; i < k; ++i) src.insert(src.unit_packet(i));
  std::vector<BitDecoder::packet_type> packets;
  for (std::size_t i = 0; i < 4 * k; ++i) packets.push_back(*src.random_combination(rng));

  for (auto _ : state) {
    BitDecoder d(k, 0);
    std::size_t i = 0;
    while (!d.full_rank() && i < packets.size()) d.insert(packets[i++]);
    benchmark::DoNotOptimize(d.rank());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_BitInsertToFullRank)->Arg(64)->Arg(256)->Arg(1024);

void BM_DenseRandomCombination(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(13);
  DenseDecoder<GF256> d(k, 16);
  for (std::size_t i = 0; i < k; ++i) d.insert(d.unit_packet(i));
  DenseDecoder<GF256>::packet_type out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.random_combination_into(rng, out));
    benchmark::DoNotOptimize(out.payload.data());
  }
}
BENCHMARK(BM_DenseRandomCombination)->Arg(32)->Arg(128);

// A bit decoder with `payload` words per row, filled to `rank` with random
// packets (rows that are full combinations, not unit vectors).
BitDecoder bit_decoder(std::size_t k, std::size_t payload, std::size_t rank,
                       ag::sim::Rng& rng) {
  BitDecoder d(k, payload);
  BitDecoder::packet_type p;
  p.coeffs.resize(BitDecoder::words_for(k));
  p.payload.resize(payload);
  while (d.rank() < rank) {
    for (auto& w : p.coeffs) w = rng();
    if (k % 64) p.coeffs.back() &= (std::uint64_t{1} << (k % 64)) - 1;
    for (auto& w : p.payload) w = rng();
    d.insert(p);
  }
  return d;
}

// One transmission from a full-rank node: range(0) = k, range(1) = payload
// words (0 = the rank tracker's shape), into a reused packet.
void BM_BitRandomCombination(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(14);
  const BitDecoder d = bit_decoder(k, static_cast<std::size_t>(state.range(1)), k, rng);
  BitDecoder::packet_type out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.random_combination_into(rng, out));
    benchmark::DoNotOptimize(out.coeffs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BitRandomCombination)->ArgsProduct({{32, 64, 256, 1024}, {0, 8}});

// A packet from the receiver's own row space at rank k/2: rejected, state
// unchanged, so every iteration is the same kind of insert (the kind that
// is 97% of barbell-128's).
void BM_BitInsertDependent(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ag::sim::Rng rng(19);
  BitDecoder d = bit_decoder(k, 0, k / 2, rng);
  std::vector<BitDecoder::packet_type> packets(64);
  for (auto& p : packets) d.random_combination_into(rng, p);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.insert(packets[i++ & 63]));
  }
}
BENCHMARK(BM_BitInsertDependent)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

constexpr std::size_t kStreamK = 16;
constexpr std::size_t kStreamPayload = 1024;

// A decoder holding the first `rank` unit equations, each with a random
// 1 KiB payload.
DenseDecoder<GF256> stream_decoder(std::size_t rank, ag::sim::Rng& rng) {
  DenseDecoder<GF256> d(kStreamK, kStreamPayload);
  std::vector<std::uint8_t> payload(kStreamPayload);
  for (std::size_t i = 0; i < rank; ++i) {
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(256));
    d.insert(d.unit_packet(i, payload));
  }
  return d;
}

// `count` random combinations of `src`'s rows.
std::vector<DenseDecoder<GF256>::packet_type> stream_packets(const DenseDecoder<GF256>& src,
                                                             std::size_t count,
                                                             ag::sim::Rng& rng) {
  std::vector<DenseDecoder<GF256>::packet_type> packets(count);
  for (auto& p : packets) src.random_combination_into(rng, p);
  return packets;
}

void BM_StreamCombine(benchmark::State& state) {
  ag::sim::Rng rng(15);
  const DenseDecoder<GF256> d = stream_decoder(kStreamK, rng);
  DenseDecoder<GF256>::packet_type out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.random_combination_into(rng, out));
    benchmark::DoNotOptimize(out.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStreamK * kStreamPayload));
}
BENCHMARK(BM_StreamCombine);

// Mean cost of a helpful insert: each iteration fills an empty decoder to
// full rank with 16 combinations of a full-rank source (independent with
// probability > 1 - 2^-120).
void BM_StreamInsertHelpful(benchmark::State& state) {
  ag::sim::Rng rng(16);
  const auto packets = stream_packets(stream_decoder(kStreamK, rng), kStreamK, rng);
  DenseDecoder<GF256> d(kStreamK, kStreamPayload);
  for (auto _ : state) {
    d.clear();
    for (const auto& p : packets) d.insert(p);
    if (!d.full_rank()) state.SkipWithError("stream packets were not independent");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStreamK));
}
BENCHMARK(BM_StreamInsertHelpful);

// A packet from the receiver's own row space (rank 8): rejected, state
// unchanged, so every iteration is the same insert.
void BM_StreamInsertDependentRank8(benchmark::State& state) {
  ag::sim::Rng rng(17);
  DenseDecoder<GF256> d = stream_decoder(kStreamK / 2, rng);
  const auto packets = stream_packets(d, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.insert(packets[i++ & 63]));
  }
}
BENCHMARK(BM_StreamInsertDependentRank8);

void BM_StreamInsertFullRank(benchmark::State& state) {
  ag::sim::Rng rng(18);
  DenseDecoder<GF256> d = stream_decoder(kStreamK, rng);
  const auto packets = stream_packets(d, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.insert(packets[i++ & 63]));
  }
}
BENCHMARK(BM_StreamInsertFullRank);

void BM_StreamCombineCoeffs(benchmark::State& state) {
  ag::sim::Rng rng(15);
  const DenseDecoder<GF256> d = stream_decoder(kStreamK, rng);
  std::vector<std::uint8_t> coeffs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.random_coefficients_into(rng, coeffs));
    benchmark::DoNotOptimize(coeffs.data());
  }
}
BENCHMARK(BM_StreamCombineCoeffs);

// `count` coefficient-only combinations of `src`'s rows.
std::vector<std::vector<std::uint8_t>> stream_coeffs(const DenseDecoder<GF256>& src,
                                                     std::size_t count, ag::sim::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out(count);
  for (auto& c : out) src.random_coefficients_into(rng, c);
  return out;
}

// BM_StreamInsertHelpful's fill, each payload built from the sender's rows.
void BM_StreamInsertFromSenderHelpful(benchmark::State& state) {
  ag::sim::Rng rng(16);
  const DenseDecoder<GF256> sender = stream_decoder(kStreamK, rng);
  const auto coeffs = stream_coeffs(sender, kStreamK, rng);
  DenseDecoder<GF256> d(kStreamK, kStreamPayload);
  for (auto _ : state) {
    d.clear();
    for (const auto& c : coeffs) d.insert_from(c, sender);
    if (!d.full_rank()) state.SkipWithError("stream packets were not independent");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStreamK));
}
BENCHMARK(BM_StreamInsertFromSenderHelpful);

// BM_StreamInsertDependentRank8 from another node holding the same rows:
// rejected before any payload is read.
void BM_StreamInsertFromSenderDependentRank8(benchmark::State& state) {
  ag::sim::Rng rng(17);
  DenseDecoder<GF256> d = stream_decoder(kStreamK / 2, rng);
  const DenseDecoder<GF256> sender = d;
  const auto coeffs = stream_coeffs(sender, 64, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.insert_from(coeffs[i++ & 63], sender));
  }
}
BENCHMARK(BM_StreamInsertFromSenderDependentRank8);

}  // namespace

int main(int argc, char** argv) { return agbench::run_micro_main(argc, argv); }
