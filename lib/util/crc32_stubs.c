/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): two kernels.

   Slicing-by-16 (portable C99).  table[0] is the classic byte-at-a-time
   table; table[k] advances a byte through k further zero bytes, so one
   step folds sixteen input bytes with sixteen independent lookups.
   Words are assembled from bytes in little-endian order (compilers merge
   these into single loads where the target allows), with no intrinsics.

   Carry-less-multiply fold (x86-64, GCC or clang).  Gopal et al., "Fast
   CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
   (Intel, 2009), as zlib and Linux do it: four 128-bit lanes each fold
   16 bytes per step (64 bytes in all), the lanes fold into one, further
   16-byte blocks fold into that, and a Barrett reduction brings the 128
   bits back to the 32-bit CRC register.  The function carries
   __attribute__((target(...))), so the build passes no -m flag and the
   rest of the file stays baseline x86-64; lfs_crc32_init turns it on
   only when the CPU reports PCLMULQDQ and SSE4.1.

   A digest runs the fold over the longest multiple of 16 bytes when it
   has at least 64, then slicing-by-16 over whatever is left (the last
   len mod 16 bytes, a whole call under 64 bytes, every call on a CPU
   without the instruction).  Both produce the same CRC register, so
   digests do not depend on the kernel.  Note that the SSE4.2 crc32
   instruction computes CRC-32C, a different polynomial. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LFS_CRC32_CLMUL 1
#include <immintrin.h>
#endif

static uint32_t table[16][256];
static int use_clmul = 0;

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* Advance the CRC register [crc] over [len] bytes at [p]. */
static uint32_t crc_slicing(uint32_t crc, const unsigned char *p, size_t len)
{
  for (; len >= 16; len -= 16, p += 16) {
    uint32_t a = le32(p) ^ crc, b = le32(p + 4), c = le32(p + 8),
             d = le32(p + 12);
    crc = table[15][a & 0xFF] ^ table[14][(a >> 8) & 0xFF]
          ^ table[13][(a >> 16) & 0xFF] ^ table[12][a >> 24]
          ^ table[11][b & 0xFF] ^ table[10][(b >> 8) & 0xFF]
          ^ table[9][(b >> 16) & 0xFF] ^ table[8][b >> 24]
          ^ table[7][c & 0xFF] ^ table[6][(c >> 8) & 0xFF]
          ^ table[5][(c >> 16) & 0xFF] ^ table[4][c >> 24]
          ^ table[3][d & 0xFF] ^ table[2][(d >> 8) & 0xFF]
          ^ table[1][(d >> 16) & 0xFF] ^ table[0][d >> 24];
  }
  for (; len > 0; len--, p++)
    crc = table[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

#ifdef LFS_CRC32_CLMUL
/* Advance the CRC register [crc] over [len] bytes at [p]; [len] is a
   multiple of 16 and at least 64.  The constants are the paper's
   bit-reflected ones for this polynomial, each 33 bits wide: k1, k2
   fold a lane 512 bits forward, k3, k4 fold 128 bits forward, k5 folds
   64 bits into 32, and mu = floor(x^64 / P) with P itself drive the
   Barrett step. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_clmul(uint32_t crc, const unsigned char *p, size_t len)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i pmu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i x0, x1, x2, x3, t0, t1, t2, t3;

  x0 = _mm_xor_si128(_mm_loadu_si128((const __m128i *)p),
                     _mm_cvtsi32_si128((int)crc));
  x1 = _mm_loadu_si128((const __m128i *)(p + 16));
  x2 = _mm_loadu_si128((const __m128i *)(p + 32));
  x3 = _mm_loadu_si128((const __m128i *)(p + 48));
  p += 64;
  len -= 64;

  /* Four lanes, each folded 512 bits forward onto the next 64 bytes. */
  for (; len >= 64; len -= 64, p += 64) {
    t0 = _mm_clmulepi64_si128(x0, k1k2, 0x00);
    t1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    t2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    t3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x0 = _mm_clmulepi64_si128(x0, k1k2, 0x11);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x0 = _mm_xor_si128(_mm_xor_si128(x0, t0),
                       _mm_loadu_si128((const __m128i *)p));
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t1),
                       _mm_loadu_si128((const __m128i *)(p + 16)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, t2),
                       _mm_loadu_si128((const __m128i *)(p + 32)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, t3),
                       _mm_loadu_si128((const __m128i *)(p + 48)));
  }

  /* The lanes into one, then any remaining 16-byte blocks. */
#define FOLD128(acc, next)                                                  \
  do {                                                                      \
    __m128i lo_ = _mm_clmulepi64_si128(acc, k3k4, 0x00);                    \
    acc = _mm_clmulepi64_si128(acc, k3k4, 0x11);                            \
    acc = _mm_xor_si128(_mm_xor_si128(acc, lo_), next);                     \
  } while (0)
  FOLD128(x0, x1);
  FOLD128(x0, x2);
  FOLD128(x0, x3);
  for (; len >= 16; len -= 16, p += 16)
    FOLD128(x0, _mm_loadu_si128((const __m128i *)p));
#undef FOLD128

  /* 128 bits to 64: the low half times k4 onto the high half; then the
     low 32 of those times k5 onto the rest. */
  x1 = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), x1);
  x1 = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  x0 = _mm_xor_si128(x0, x1);

  /* Barrett: q = (low 32 * mu) low 32, remainder = x0 ^ q * P. */
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), pmu, 0x10);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pmu, 0x00);
  x0 = _mm_xor_si128(x0, x1);
  return (uint32_t)_mm_extract_epi32(x0, 1);
}
#endif

value lfs_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 16; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = table[k - 1][n];
      table[k][n] = (prev >> 8) ^ table[0][prev & 0xFF];
    }
#ifdef LFS_CRC32_CLMUL
  __builtin_cpu_init();
  use_clmul = __builtin_cpu_supports("pclmul")
              && __builtin_cpu_supports("sse4.1");
#endif
  return Val_unit;
}

/* Whether digests run the carry-less-multiply fold. */
value lfs_crc32_uses_clmul(value unit)
{
  (void)unit;
  return Val_bool(use_clmul);
}

/* The caller has checked that [off, off + len) lies inside [buf]. */
intnat lfs_crc32_digest(value buf, intnat off, intnat len)
{
  const unsigned char *p = Bytes_val(buf) + off;
  size_t n = (size_t)len;
  uint32_t crc = 0xFFFFFFFFu;
#ifdef LFS_CRC32_CLMUL
  if (use_clmul && n >= 64) {
    size_t folded = n & ~(size_t)15;
    crc = crc_clmul(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return (intnat)(crc_slicing(crc, p, n) ^ 0xFFFFFFFFu);
}

/* Slicing-by-16 alone, whatever the CPU: lets the tests cover the
   portable kernel on a machine that would otherwise fold. */
intnat lfs_crc32_digest_portable(value buf, intnat off, intnat len)
{
  const unsigned char *p = Bytes_val(buf) + off;
  return (intnat)(crc_slicing(0xFFFFFFFFu, p, (size_t)len) ^ 0xFFFFFFFFu);
}

/* Bytecode entry points: the same kernels on tagged arguments. */
value lfs_crc32_digest_byte(value buf, value off, value len)
{
  return Val_long(lfs_crc32_digest(buf, Long_val(off), Long_val(len)));
}

value lfs_crc32_digest_portable_byte(value buf, value off, value len)
{
  return Val_long(
      lfs_crc32_digest_portable(buf, Long_val(off), Long_val(len)));
}
