/**
 * @file
 * Tagged-pointer formats (Fig. 7 of the paper).
 *
 * A 64-bit GPU pointer carries a 2-bit class field (C) in bits [63:62],
 * a 14-bit metadata field in bits [61:48], and the 48-bit canonical
 * virtual address in bits [47:0]:
 *
 *   C = 0  Type 1  unprotected — bounds checking skipped (statically safe)
 *   C = 1  Type 2  base type   — field holds the encrypted buffer ID
 *   C = 2  Type 3  offset opt. — field holds log2 of the buffer window
 *
 * Tags survive pointer arithmetic naturally because offsets only touch
 * the low 48 bits (§5.2.4).
 */

#ifndef GPUSHIELD_SHIELD_POINTER_H
#define GPUSHIELD_SHIELD_POINTER_H

#include <cstdint>

#include "common/types.h"

namespace gpushield {

/** Pointer class encoded in the C field. */
enum class PtrClass : std::uint8_t {
    Unprotected = 0, //!< Type 1: skip bounds checking
    TaggedId = 1,    //!< Type 2: encrypted buffer ID in the field
    SizedWindow = 2, //!< Type 3: log2(window size) in the field
};

/** Builds a Type 1 (unprotected) pointer. */
std::uint64_t make_unprotected_ptr(VAddr addr);

/** Builds a Type 2 pointer embedding @p encrypted_id. */
std::uint64_t make_tagged_ptr(VAddr addr, std::uint16_t encrypted_id);

/** Builds a Type 3 pointer embedding @p log2_size (window = 2^log2_size). */
std::uint64_t make_sized_ptr(VAddr addr, unsigned log2_size);

/** Extracts the pointer class. Values 3 decode as Unprotected. */
PtrClass ptr_class(std::uint64_t ptr);

/** Extracts the 14-bit metadata field. */
std::uint16_t ptr_field(std::uint64_t ptr);

/** Extracts the canonical 48-bit address. */
VAddr ptr_addr(std::uint64_t ptr);

} // namespace gpushield

#endif // GPUSHIELD_SHIELD_POINTER_H
