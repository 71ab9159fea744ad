// Seed-corpus generator: writes deterministic wire frames for the fuzz
// harnesses into <outdir>.
//
//   gen_corpus <outdir>
//
// The seeds come from the real encoder (valid frames for all four packet
// fields plus control, over shapes straddling every bit-packing boundary)
// plus the malformed-frame corpus the wire tests pin: truncations, bad
// magic/version/field, oversized counts, shape mismatch, trailing bytes,
// out-of-range symbols and nonzero spare bits.  File names say what each
// seed is, so a libFuzzer crash artifact's lineage is readable.
//
// The committed copy under fuzz/corpus/ is this tool's output; the
// corpus_generate ctest fixture regenerates it into the build tree on every
// run, so encoder drift shows up as replay/seed divergence, not silence.
// Before writing, the tool deletes the valid_*/bad_* files already in
// <outdir>, so a seed the generator no longer emits cannot linger in an
// incremental build tree (other files are left alone).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ag;
namespace fs = std::filesystem;

fs::path g_out;
int g_count = 0;

void emit(const std::string& name, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(g_out / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "gen_corpus: cannot write %s\n", (g_out / name).c_str());
    std::exit(1);
  }
  ++g_count;
}

template <typename F>
linalg::DensePacket<F> random_dense(std::size_t k, std::size_t len, sim::Rng& rng) {
  linalg::DensePacket<F> p;
  p.coeffs.resize(k);
  p.payload.resize(len);
  for (auto& c : p.coeffs) c = static_cast<typename F::value_type>(rng.uniform(F::order));
  for (auto& s : p.payload) s = static_cast<typename F::value_type>(rng.uniform(F::order));
  return p;
}

linalg::BitPacket random_bit(std::size_t k, std::size_t words, sim::Rng& rng) {
  linalg::BitPacket p;
  p.coeffs.resize((k + 63) / 64);
  p.payload.resize(words);
  for (auto& w : p.coeffs) w = rng();
  if (k % 64 != 0 && !p.coeffs.empty())
    p.coeffs.back() &= (std::uint64_t{1} << (k % 64)) - 1;
  for (auto& w : p.payload) w = rng();
  return p;
}

template <typename P>
std::vector<std::uint8_t> frame_of(const P& pkt, std::size_t k) {
  std::vector<std::uint8_t> f;
  net::encode_into(pkt, k, f);
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
    return 2;
  }
  g_out = argv[1];
  fs::create_directories(g_out);
  for (const auto& entry : fs::directory_iterator(g_out)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("valid_", 0) == 0 || name.rfind("bad_", 0) == 0) {
      fs::remove(entry.path());
    }
  }

  sim::Rng rng(20260808);

  // --- valid frames from the encoder: every field x boundary shapes -------
  const std::size_t ks[] = {1, 7, 8, 13, 64, 65};
  const std::size_t lens[] = {0, 1, 4, 32};
  char name[64];
  for (const auto k : ks) {
    for (const auto len : lens) {
      const auto shaped = [&](const char* field) {
        std::snprintf(name, sizeof name, "valid_%s_k%zu_l%zu", field, k, len);
        return name;
      };
      emit(shaped("gf2bit"), frame_of(random_bit(k, len, rng), k));
      emit(shaped("gf16"), frame_of(random_dense<gf::GF16>(k, len, rng), k));
      emit(shaped("gf256"), frame_of(random_dense<gf::GF256>(k, len, rng), k));
      emit(shaped("gf64k"), frame_of(random_dense<gf::GF65536>(k, len, rng), k));
    }
  }

  net::ControlFrame ctl;
  ctl.sender = 3;
  ctl.data = {0xde, 0xad, 0xbe, 0xef};
  std::vector<std::uint8_t> cf;
  net::encode_control(ctl, cf);
  emit("valid_control", cf);
  ctl.data.clear();
  net::encode_control(ctl, cf);
  emit("valid_control_empty", cf);

  // --- generation-field seeds ---------------------------------------------
  {
    const auto pkt = random_dense<gf::GF256>(5, 4, rng);
    std::vector<std::uint8_t> f;
    net::encode_into(pkt, 5, f, 0xdead00ffu);
    emit("valid_gen_nonzero", f);
    ctl.sender = 3;
    ctl.data = {0xaa, 0xbb};
    net::encode_control(ctl, f, 42);
    emit("valid_gen_control", f);
  }

  // --- the malformed corpus the wire tests pin ----------------------------
  const auto base = frame_of(random_dense<gf::GF256>(5, 4, rng), 5);

  for (const std::size_t cut : {0u, 3u, 11u, 12u, 13u, 15u, 19u}) {
    std::snprintf(name, sizeof name, "bad_truncated_%zu", cut);
    emit(name, std::vector<std::uint8_t>(base.begin(),
                                         base.begin() + static_cast<std::ptrdiff_t>(cut)));
  }

  auto f = base;
  f[0] = 0x42;
  emit("bad_magic0", f);
  f = base;
  f[1] = 0x00;
  emit("bad_magic1", f);
  f = base;
  f[2] = static_cast<std::uint8_t>(net::kWireVersion + 1);
  emit("bad_version", f);
  f = base;
  f[2] = 0;
  emit("bad_version_zero", f);
  f = base;
  f[2] = 1;  // the retired 12-byte header layout
  emit("bad_version_one", f);
  f = base;
  f[3] = 6;  // first unassigned field id
  emit("bad_field_unassigned", f);
  f = base;
  f[3] = 2;  // retired dense GF(2) encoding
  emit("bad_field_retired_gf2", f);
  f = base;
  f[3] = 0xff;
  emit("bad_field_ff", f);

  f = base;
  net::write_header(f.data(), net::WireHeader{net::WireField::Gf256, 0xffffffffu, 4});
  emit("bad_oversized_k", f);
  f = base;
  net::write_header(f.data(), net::WireHeader{net::WireField::Gf256, 5, 0xffffffffu});
  emit("bad_oversized_len", f);

  f = base;
  net::write_header(f.data(), net::WireHeader{net::WireField::Gf256, 6, 4});
  emit("bad_shape_mismatch", f);

  f = base;
  f.push_back(0x00);
  emit("bad_trailing", f);

  // Out-of-range GF(16) symbol and nonzero GF(2) spare bits.
  f = frame_of(random_dense<gf::GF16>(5, 4, rng), 5);
  f[net::kHeaderBytes] = 16;
  emit("bad_gf16_symbol", f);
  f = frame_of(random_bit(5, 4, rng), 5);
  f[net::kHeaderBytes] |= 0x80;
  emit("bad_gf2_spare_bits", f);

  // Tiny degenerate inputs the truncation loop does not reach.
  emit("bad_empty", {});
  emit("bad_one_byte", {0x41});

  std::fprintf(stderr, "gen_corpus: wrote %d seed(s) to %s\n", g_count,
               g_out.c_str());
  return 0;
}
