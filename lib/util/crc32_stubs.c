/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-16.

   table[0] is the classic byte-at-a-time table; table[k] advances a byte
   through k further zero bytes, so one step folds sixteen input bytes
   with sixteen independent lookups.  Portable C99: words are assembled
   from bytes in little-endian order (compilers merge these into single
   loads where the target allows), with no intrinsics.  Note that the
   SSE4.2 crc32 instruction computes CRC-32C, a different polynomial. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t table[16][256];

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
  return Val_unit;
}

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* The caller has checked that [off, off + len) lies inside [buf]. */
intnat lfs_crc32_digest(value buf, intnat off, intnat len)
{
  const unsigned char *p = Bytes_val(buf) + off;
  uint32_t crc = 0xFFFFFFFFu;
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
  return (intnat)(crc ^ 0xFFFFFFFFu);
}

/* Bytecode entry point: the same kernel on tagged arguments. */
value lfs_crc32_digest_byte(value buf, value off, value len)
{
  return Val_long(lfs_crc32_digest(buf, Long_val(off), Long_val(len)));
}
