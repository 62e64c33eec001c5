#ifndef FAST_CST_CST_SERIALIZE_H_
#define FAST_CST_CST_SERIALIZE_H_

// Flat 32-bit-word image of a CST — the byte stream that crosses PCIe into
// card DRAM and is then DMA'd into BRAM (Fig. 2 steps 3-4).
//
// Layout (all words little-endian uint32):
//   [magic, n_query_vertices, n_slots]
//   per query vertex u:  [|C(u)|, C(u)...]
//   per directed slot s: [|offsets|, offsets..., |targets|, targets...]
//
// The image length equals Cst::SizeWords() plus a fixed header and per-array
// length prefixes, so the BRAM budget accounting (δ_S) matches what is
// actually shipped. Decoding requires the CstLayout (query + root), which the
// host and kernel share by construction.
//
// The image is not on the serving path: the plan cache keeps compiled plans
// (core/compiled_plan.h) whose partitions are matched as they are, with no
// encode or decode. It is kept on purpose for two users: CstWireBytes, which
// sizes every simulated PCIe transfer from this layout, and
// cst_serialize_test, which checks that the layout round-trips a CST exactly.

#include <cstdint>
#include <vector>

#include "cst/cst.h"
#include "util/status.h"

namespace fast {

inline constexpr std::uint32_t kCstImageMagic = 0xFA57C571u;

// Serializes the CST into a flat word image.
std::vector<std::uint32_t> SerializeCst(const Cst& cst);

// Reconstructs a CST from an image produced by SerializeCst. The layout must
// describe the same query and root the image was built from; structural
// mismatches are rejected.
StatusOr<Cst> DeserializeCst(std::shared_ptr<const CstLayout> layout,
                             const std::vector<std::uint32_t>& image);

// Exact wire size in bytes for a CST (image length * 4); used by the driver
// for PCIe accounting.
std::size_t CstWireBytes(const Cst& cst);

}  // namespace fast

#endif  // FAST_CST_CST_SERIALIZE_H_
