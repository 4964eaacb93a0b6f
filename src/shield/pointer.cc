#include "shield/pointer.h"

#include "common/bitutil.h"
#include "common/log.h"

namespace gpushield {

namespace {

constexpr unsigned kClassShift = 62;
constexpr unsigned kFieldShift = kVAddrBits;

std::uint64_t
compose(PtrClass cls, std::uint16_t field, VAddr addr)
{
    return (static_cast<std::uint64_t>(cls) << kClassShift) |
           (static_cast<std::uint64_t>(field & kBufferIdMask) << kFieldShift) |
           (addr & kVAddrMask);
}

} // namespace

std::uint64_t
make_unprotected_ptr(VAddr addr)
{
    return compose(PtrClass::Unprotected, 0, addr);
}

std::uint64_t
make_tagged_ptr(VAddr addr, std::uint16_t encrypted_id)
{
    return compose(PtrClass::TaggedId, encrypted_id, addr);
}

std::uint64_t
make_sized_ptr(VAddr addr, unsigned log2_size)
{
    if (log2_size >= 48)
        fatal("make_sized_ptr: window exponent too large");
    return compose(PtrClass::SizedWindow,
                   static_cast<std::uint16_t>(log2_size), addr);
}

PtrClass
ptr_class(std::uint64_t ptr)
{
    const auto c = bits(ptr, kClassShift, 2);
    return c <= 2 ? static_cast<PtrClass>(c) : PtrClass::Unprotected;
}

std::uint16_t
ptr_field(std::uint64_t ptr)
{
    return static_cast<std::uint16_t>(bits(ptr, kFieldShift, kBufferIdBits));
}

VAddr
ptr_addr(std::uint64_t ptr)
{
    return ptr & kVAddrMask;
}

} // namespace gpushield
