/* CRC-32 (ISO-HDLC, reflected polynomial 0xEDB88320) by carry-less
 * multiplication, for Crc.crc32.
 *
 * The method is Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction" (Intel, 2009): four 128-bit
 * accumulators fold 64 bytes per step, are folded into one, which then
 * folds the remaining 16-byte blocks; a final 128 -> 64 -> 32 bit
 * reduction ends with a Barrett step. The constants are the ones for
 * this polynomial in bit-reflected form:
 *
 *   k1 = x^(4*128+32) mod P   k2 = x^(4*128-32) mod P   (fold by 512)
 *   k3 = x^(128+32) mod P     k4 = x^(128-32) mod P     (fold by 128)
 *   k5 = x^64 mod P                                      (128 -> 64)
 *   P' = P (33 bits)          u  = x^64 / P              (Barrett)
 *
 * The kernel runs on the pre- and post-inverted CRC register, so
 * Crc.crc32 can chain it with its table code on either side: the OCaml
 * code takes ranges under 64 bytes, the tail of fewer than 16 bytes,
 * and everything on a CPU without PCLMULQDQ and SSE4.1. The choice is
 * made once, at module initialisation (horus_crc32_accelerated).
 *
 * Both entry points are [@@noalloc] externals: they neither allocate
 * nor raise, and the runtime lock stays held, so the Bytes pointer is
 * stable for the whole call. The kernel keeps no state between calls.
 */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HORUS_CRC_CLMUL 1
#include <immintrin.h>
#endif

#ifdef HORUS_CRC_CLMUL

/* One 128-bit fold: acc * (k_hi, k_lo) carried forward, plus [data]. */
__attribute__((target("pclmul,sse4.1")))
static inline __m128i fold16(__m128i acc, __m128i k, __m128i data)
{
  __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), data);
}

/* Requires len >= 64 and len a multiple of 16. [crc] is the inverted
 * register (~crc of the prefix, or 0xFFFFFFFF); so is the result. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_clmul(const uint8_t *p, intnat len, uint32_t crc)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i pu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i a0 = _mm_loadu_si128((const __m128i *)(p + 0));
  __m128i a1 = _mm_loadu_si128((const __m128i *)(p + 16));
  __m128i a2 = _mm_loadu_si128((const __m128i *)(p + 32));
  __m128i a3 = _mm_loadu_si128((const __m128i *)(p + 48));
  a0 = _mm_xor_si128(a0, _mm_cvtsi32_si128((int)crc));
  p += 64;
  len -= 64;

  while (len >= 64) {
    a0 = fold16(a0, k1k2, _mm_loadu_si128((const __m128i *)(p + 0)));
    a1 = fold16(a1, k1k2, _mm_loadu_si128((const __m128i *)(p + 16)));
    a2 = fold16(a2, k1k2, _mm_loadu_si128((const __m128i *)(p + 32)));
    a3 = fold16(a3, k1k2, _mm_loadu_si128((const __m128i *)(p + 48)));
    p += 64;
    len -= 64;
  }

  /* Four accumulators into one, then the remaining 16-byte blocks. */
  __m128i x = fold16(a0, k3k4, a1);
  x = fold16(x, k3k4, a2);
  x = fold16(x, k3k4, a3);
  while (len >= 16) {
    x = fold16(x, k3k4, _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }

  /* 128 -> 64 bits. */
  __m128i t = _mm_clmulepi64_si128(x, k3k4, 0x10);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), t);
  t = _mm_srli_si128(x, 4);
  x = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00);
  x = _mm_xor_si128(x, t);

  /* Barrett reduction, 64 -> 32 bits. */
  t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pu, 0x00);
  x = _mm_xor_si128(x, t);
  return (uint32_t)_mm_extract_epi32(x, 1);
}

#endif /* HORUS_CRC_CLMUL */

/* Whether this CPU and build can run the kernel. */
CAMLprim value horus_crc32_accelerated(value unit)
{
  (void)unit;
#ifdef HORUS_CRC_CLMUL
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"));
#else
  return Val_false;
#endif
}

/* crc32_clmul(b, off, len, crc): fold b[off..off+len) into the inverted
 * register [crc]. The OCaml caller has bounds-checked the range, made
 * len >= 64 and a multiple of 16, and calls this only when
 * horus_crc32_accelerated said yes. */
CAMLprim intnat horus_crc32_clmul(value vb, intnat off, intnat len, intnat crc)
{
#ifdef HORUS_CRC_CLMUL
  return crc32_clmul((const uint8_t *)Bytes_val(vb) + off, len, (uint32_t)crc);
#else
  (void)vb; (void)off; (void)len;
  return crc;
#endif
}

CAMLprim value horus_crc32_clmul_byte(value vb, value voff, value vlen, value vcrc)
{
  return Val_long(horus_crc32_clmul(vb, Long_val(voff), Long_val(vlen), Long_val(vcrc)));
}
