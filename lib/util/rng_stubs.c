/* splitmix64 byte fill: two kernels for Rng.fill_bytes.

   Byte i of a fill from state s is bits 1..8 of mix(s + (i+1)*gamma),
   the byte [Rng.int t 256] would draw at that step, and the fill leaves
   the state at s + len*gamma.  Every step is independent of the others
   (the state only advances by gamma), so the bytes can be computed in
   any order and in parallel.

   Portable (C99).  One step per byte: an add, the three-round mix, a
   shift and a truncation.

   AVX-512 (x86-64, GCC or clang).  Sixteen bytes per step: two 8-lane
   vectors of states, each mixed with vpmullq (AVX-512DQ), shifted right
   by one and truncated to a byte per lane with vpmovqb (AVX-512F), then
   stored as one 16-byte block.  The function carries
   __attribute__((target(...))), so the build passes no -m flag and the
   rest of the file stays baseline x86-64; lfs_rng_init turns it on only
   when the CPU (and the OS) report AVX-512F and AVX-512DQ.  The portable
   loop computes the last len mod 16 bytes. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LFS_RNG_AVX512 1
#include <immintrin.h>
#endif

#define GAMMA 0x9E3779B97F4A7C15ULL
#define M1 0xBF58476D1CE4E5B9ULL
#define M2 0x94D049BB133111EBULL

static int use_avx512 = 0;

static inline uint64_t mix(uint64_t z)
{
  z = (z ^ (z >> 30)) * M1;
  z = (z ^ (z >> 27)) * M2;
  return z ^ (z >> 31);
}

/* Fill [len] bytes at [p] from state [s]; the advanced state. */
static uint64_t fill_portable(unsigned char *p, size_t len, uint64_t s)
{
  for (size_t i = 0; i < len; i++) {
    s += GAMMA;
    p[i] = (unsigned char)(mix(s) >> 1);
  }
  return s;
}

#ifdef LFS_RNG_AVX512
__attribute__((target("avx512f,avx512dq")))
static inline __m512i mix8(__m512i z)
{
  const __m512i m1 = _mm512_set1_epi64((long long)M1);
  const __m512i m2 = _mm512_set1_epi64((long long)M2);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), m1);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), m2);
  z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
  return _mm512_srli_epi64(z, 1);
}

/* Fill the first len - len mod 16 bytes at [p] from state [s]; the
   state after them. */
__attribute__((target("avx512f,avx512dq")))
static uint64_t fill_avx512(unsigned char *p, size_t len, uint64_t s)
{
  /* Lane k of [lo] holds s + (k+1)*gamma, of [hi] s + (k+9)*gamma. */
  const __m512i step = _mm512_set1_epi64((long long)(16 * GAMMA));
  __m512i lo = _mm512_add_epi64(
      _mm512_set1_epi64((long long)s),
      _mm512_set_epi64((long long)(8 * GAMMA), (long long)(7 * GAMMA),
                       (long long)(6 * GAMMA), (long long)(5 * GAMMA),
                       (long long)(4 * GAMMA), (long long)(3 * GAMMA),
                       (long long)(2 * GAMMA), (long long)GAMMA));
  __m512i hi = _mm512_add_epi64(lo, _mm512_set1_epi64((long long)(8 * GAMMA)));
  size_t n = len & ~(size_t)15;
  for (size_t i = 0; i < n; i += 16) {
    __m128i a = _mm512_cvtepi64_epi8(mix8(lo));
    __m128i b = _mm512_cvtepi64_epi8(mix8(hi));
    _mm_storeu_si128((__m128i *)(p + i), _mm_unpacklo_epi64(a, b));
    lo = _mm512_add_epi64(lo, step);
    hi = _mm512_add_epi64(hi, step);
  }
  return s + (uint64_t)n * GAMMA;
}
#endif

value lfs_rng_init(value unit)
{
  (void)unit;
#ifdef LFS_RNG_AVX512
  __builtin_cpu_init();
  use_avx512 = __builtin_cpu_supports("avx512f")
               && __builtin_cpu_supports("avx512dq");
#endif
  return Val_unit;
}

/* Whether fills run the AVX-512 kernel. */
value lfs_rng_uses_avx512(value unit)
{
  (void)unit;
  return Val_bool(use_avx512);
}

int64_t lfs_rng_fill(value buf, int64_t state)
{
  unsigned char *p = Bytes_val(buf);
  size_t len = caml_string_length(buf);
  uint64_t s = (uint64_t)state;
#ifdef LFS_RNG_AVX512
  if (use_avx512 && len >= 16) {
    size_t n = len & ~(size_t)15;
    s = fill_avx512(p, n, s);
    p += n;
    len -= n;
  }
#endif
  return (int64_t)fill_portable(p, len, s);
}

/* The portable loop alone, whatever the CPU: lets the tests cover it on
   a machine that would run the vector kernel. */
int64_t lfs_rng_fill_portable(value buf, int64_t state)
{
  return (int64_t)fill_portable(Bytes_val(buf), caml_string_length(buf),
                                (uint64_t)state);
}

/* Bytecode entry points: the same kernels on a boxed state. */
value lfs_rng_fill_byte(value buf, value state)
{
  return caml_copy_int64(lfs_rng_fill(buf, Int64_val(state)));
}

value lfs_rng_fill_portable_byte(value buf, value state)
{
  return caml_copy_int64(lfs_rng_fill_portable(buf, Int64_val(state)));
}
