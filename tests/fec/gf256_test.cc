#include "fec/gf256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ppr::fec {
namespace {

TEST(Gf256Test, LogExpRoundtrip) {
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(GfExp(GfLog(static_cast<std::uint8_t>(a))), a);
  }
  // exp is 255-periodic (the multiplicative group order).
  for (unsigned p = 0; p < 255; ++p) {
    EXPECT_EQ(GfExp(p), GfExp(p + 255));
  }
}

TEST(Gf256Test, MulIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(GfMul(x, 1), x);
    EXPECT_EQ(GfMul(1, x), x);
    EXPECT_EQ(GfMul(x, 0), 0);
    EXPECT_EQ(GfMul(0, x), 0);
  }
}

TEST(Gf256Test, MulCommutes) {
  for (unsigned a = 0; a < 256; a += 3) {
    for (unsigned b = 0; b < 256; b += 5) {
      EXPECT_EQ(GfMul(static_cast<std::uint8_t>(a),
                      static_cast<std::uint8_t>(b)),
                GfMul(static_cast<std::uint8_t>(b),
                      static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256Test, MulAssociates) {
  Rng rng(271);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.UniformInt(256));
    const auto b = static_cast<std::uint8_t>(rng.UniformInt(256));
    const auto c = static_cast<std::uint8_t>(rng.UniformInt(256));
    EXPECT_EQ(GfMul(GfMul(a, b), c), GfMul(a, GfMul(b, c)));
  }
}

TEST(Gf256Test, MulDistributesOverXor) {
  // Addition in GF(2^8) is XOR: a*(b+c) == a*b + a*c.
  Rng rng(272);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.UniformInt(256));
    const auto b = static_cast<std::uint8_t>(rng.UniformInt(256));
    const auto c = static_cast<std::uint8_t>(rng.UniformInt(256));
    EXPECT_EQ(GfMul(a, b ^ c), GfMul(a, b) ^ GfMul(a, c));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(GfMul(x, GfInv(x)), 1) << "a=" << a;
  }
}

TEST(Gf256Test, DivIsMulByInverse) {
  Rng rng(273);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.UniformInt(256));
    const auto b = static_cast<std::uint8_t>(1 + rng.UniformInt(255));
    EXPECT_EQ(GfDiv(a, b), GfMul(a, GfInv(b)));
    EXPECT_EQ(GfMul(GfDiv(a, b), b), a);
  }
}

TEST(Gf256Test, AxpyMatchesScalarReference) {
  Rng rng(274);
  for (const std::size_t len : {std::size_t{1}, std::size_t{7},
                                std::size_t{8}, std::size_t{64},
                                std::size_t{1000}}) {
    for (const unsigned coef : {0u, 1u, 2u, 0x53u, 0xFFu}) {
      std::vector<std::uint8_t> dst(len), src(len), expect(len);
      for (std::size_t i = 0; i < len; ++i) {
        dst[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
        src[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
        expect[i] = dst[i] ^ GfMul(static_cast<std::uint8_t>(coef), src[i]);
      }
      GfAxpy(dst, static_cast<std::uint8_t>(coef), src);
      EXPECT_EQ(dst, expect) << "len=" << len << " coef=" << coef;
    }
  }
}

TEST(Gf256Test, ScaleMatchesScalarReference) {
  Rng rng(275);
  std::vector<std::uint8_t> data(257), expect(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  for (const unsigned coef : {0u, 1u, 0xA7u}) {
    auto scaled = data;
    for (std::size_t i = 0; i < data.size(); ++i) {
      expect[i] = GfMul(static_cast<std::uint8_t>(coef), data[i]);
    }
    GfScale(scaled, static_cast<std::uint8_t>(coef));
    EXPECT_EQ(scaled, expect) << "coef=" << coef;
  }
}

TEST(Gf256DispatchTest, ScalarAlwaysAvailableAndActiveIsAvailable) {
  EXPECT_TRUE(GfImplAvailable(GfImpl::kScalar));
  const auto impls = GfAvailableImpls();
  ASSERT_FALSE(impls.empty());
  EXPECT_EQ(impls.front(), GfImpl::kScalar);
  EXPECT_NE(std::find(impls.begin(), impls.end(), GfActiveImpl()),
            impls.end());
}

TEST(Gf256DispatchTest, ImplNamesRoundtrip) {
  for (const GfImpl impl :
       {GfImpl::kScalar, GfImpl::kAvx2, GfImpl::kNeon, GfImpl::kGfni}) {
    const auto back = GfImplFromName(GfImplName(impl));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, impl);
  }
  EXPECT_FALSE(GfImplFromName("pshufb").has_value());
  EXPECT_FALSE(GfImplFromName("").has_value());
  // Names of deleted backends must not resolve, so a stale
  // PPR_GF256_FORCE_IMPL pin aborts instead of picking a kernel.
  EXPECT_FALSE(GfImplFromName("ssse3").has_value());
  EXPECT_FALSE(GfImplFromName("avx512").has_value());
}

TEST(Gf256DispatchTest, SetImplRejectsUnavailableBackends) {
  const GfImpl before = GfActiveImpl();
  for (const GfImpl impl :
       {GfImpl::kScalar, GfImpl::kAvx2, GfImpl::kNeon, GfImpl::kGfni}) {
    if (!GfImplAvailable(impl)) {
      EXPECT_FALSE(GfSetImpl(impl));
      EXPECT_EQ(GfActiveImpl(), before);
    }
  }
}

// Backing store for a misaligned 301-byte span at offset 1. The span's
// first 256 bytes, which every kernel's vector body covers, are a
// permutation of all byte values; the rest is random.
std::vector<std::uint8_t> EveryByteValueBuffer(Rng& rng) {
  std::vector<std::uint8_t> v(302);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i >= 1 && i <= 256 ? static_cast<std::uint8_t>((i - 1) * 167 + 13)
                              : static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  return v;
}

// Every backend must agree byte-for-byte with the table multiply across
// coef 0/1/random, lengths spanning 0-4 KiB with non-multiple-of-16
// tails, and deliberately misaligned spans: SIMD kernels use unaligned
// loads, and the symbol buffers they see in practice carry no alignment
// guarantee. Then every coefficient, over every byte value, checks each
// backend's per-coefficient setup (the GFNI matrix table, the
// split-nibble tables, the scalar row) against GfMul.
TEST(Gf256DispatchTest, AxpyAgreesWithTableMultiplyOnEveryBackend) {
  Rng rng(276);
  const std::size_t lengths[] = {0,  1,  3,   7,   8,    15,   16,  17,
                                 31, 33, 63,  64,  65,   100,  127, 255,
                                 256, 257, 1000, 1024, 1033, 4095, 4096};
  for (const GfImpl impl : GfAvailableImpls()) {
    GfImplScope guard(impl);
    ASSERT_TRUE(guard.ok());
    for (const std::size_t len : lengths) {
      for (const unsigned coef :
           {0u, 1u, 2u, 0x53u, 0x80u, 0xFFu,
            1u + static_cast<unsigned>(rng.UniformInt(255))}) {
        // Backing stores three bytes longer than the span: the spans
        // start at offsets 1 and 2, so vector loads are misaligned and
        // an overrun would corrupt (checkable) padding.
        std::vector<std::uint8_t> dst_buf(len + 3), src_buf(len + 3);
        for (auto& b : dst_buf) b = static_cast<std::uint8_t>(rng.UniformInt(256));
        for (auto& b : src_buf) b = static_cast<std::uint8_t>(rng.UniformInt(256));
        const auto dst_pad = dst_buf;
        std::span<std::uint8_t> dst(dst_buf.data() + 1, len);
        std::span<const std::uint8_t> src(src_buf.data() + 2, len);
        std::vector<std::uint8_t> expect(len);
        for (std::size_t i = 0; i < len; ++i) {
          expect[i] = dst[i] ^ GfMul(static_cast<std::uint8_t>(coef), src[i]);
        }
        GfAxpy(dst, static_cast<std::uint8_t>(coef), src);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), dst.begin()))
            << GfImplName(impl) << " len=" << len << " coef=" << coef;
        EXPECT_EQ(dst_buf[0], dst_pad[0]) << "underrun";
        EXPECT_EQ(dst_buf[len + 1], dst_pad[len + 1]) << "overrun";
        EXPECT_EQ(dst_buf[len + 2], dst_pad[len + 2]) << "overrun";
      }
    }
    const auto src_buf = EveryByteValueBuffer(rng);
    const std::span<const std::uint8_t> src(src_buf.data() + 1, 301);
    for (unsigned coef = 0; coef < 256; ++coef) {
      std::vector<std::uint8_t> dst_buf(302);
      for (auto& b : dst_buf) {
        b = static_cast<std::uint8_t>(rng.UniformInt(256));
      }
      const std::span<std::uint8_t> dst(dst_buf.data() + 1, src.size());
      std::vector<std::uint8_t> expect(dst.size());
      for (std::size_t i = 0; i < dst.size(); ++i) {
        expect[i] = dst[i] ^ GfMul(static_cast<std::uint8_t>(coef), src[i]);
      }
      GfAxpy(dst, static_cast<std::uint8_t>(coef), src);
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(), dst.begin()))
          << GfImplName(impl) << " coef=" << coef;
    }
  }
}

TEST(Gf256DispatchTest, ScaleAgreesWithTableMultiplyOnEveryBackend) {
  Rng rng(277);
  for (const GfImpl impl : GfAvailableImpls()) {
    GfImplScope guard(impl);
    ASSERT_TRUE(guard.ok());
    for (const std::size_t len : {std::size_t{0}, std::size_t{5},
                                  std::size_t{16}, std::size_t{63},
                                  std::size_t{257}, std::size_t{4096}}) {
      for (const unsigned coef : {0u, 1u, 0xA7u}) {
        std::vector<std::uint8_t> data(len), expect(len);
        for (std::size_t i = 0; i < len; ++i) {
          data[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
          expect[i] = GfMul(static_cast<std::uint8_t>(coef), data[i]);
        }
        GfScale(data, static_cast<std::uint8_t>(coef));
        EXPECT_EQ(data, expect)
            << GfImplName(impl) << " len=" << len << " coef=" << coef;
      }
    }
    const auto values = EveryByteValueBuffer(rng);
    for (unsigned coef = 0; coef < 256; ++coef) {
      auto buf = values;
      const std::span<std::uint8_t> data(buf.data() + 1, 301);
      std::vector<std::uint8_t> expect(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        expect[i] = GfMul(static_cast<std::uint8_t>(coef), data[i]);
      }
      GfScale(data, static_cast<std::uint8_t>(coef));
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(), data.begin()))
          << GfImplName(impl) << " coef=" << coef;
    }
  }
}

// GfAxpyN must equal term-by-term GfAxpy (it only reorders the walk
// into dst blocks), including coef 0 and 1 terms and a term count that
// crosses the internal block size.
TEST(Gf256DispatchTest, AxpyNMatchesSequentialAxpyOnEveryBackend) {
  Rng rng(278);
  for (const GfImpl impl : GfAvailableImpls()) {
    GfImplScope guard(impl);
    ASSERT_TRUE(guard.ok());
    for (const std::size_t len : {std::size_t{0}, std::size_t{4},
                                  std::size_t{100}, std::size_t{1024},
                                  std::size_t{4096}, std::size_t{5000}}) {
      std::vector<std::uint8_t> dst(len), expect(len);
      for (std::size_t i = 0; i < len; ++i) {
        dst[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
      }
      expect = dst;
      std::vector<std::vector<std::uint8_t>> srcs(9);
      std::vector<GfTerm> terms;
      std::uint8_t coef = 0;  // first terms exercise coef 0 and 1
      for (auto& s : srcs) {
        s.resize(len);
        for (auto& b : s) b = static_cast<std::uint8_t>(rng.UniformInt(256));
        terms.push_back({coef, s});
        coef = coef < 2 ? coef + 1
                        : static_cast<std::uint8_t>(1 + rng.UniformInt(255));
      }
      for (const auto& t : terms) GfAxpy(expect, t.coef, t.src);
      GfAxpyN(dst, terms);
      EXPECT_EQ(dst, expect) << GfImplName(impl) << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace ppr::fec
