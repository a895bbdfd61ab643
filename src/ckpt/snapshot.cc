#include "ckpt/snapshot.hh"

#include <cstdio>
#include <cstring>

#include "sim/logging.hh"

namespace jmsim
{
namespace ckpt
{

void
Writer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Reader::need(std::size_t n)
{
    if (size_ - pos_ < n)
        fatal("checkpoint body truncated (need " + std::to_string(n) +
              " bytes at offset " + std::to_string(pos_) + ", have " +
              std::to_string(size_ - pos_) + ")");
}

std::uint8_t
Reader::u8()
{
    need(1);
    return data_[pos_++];
}

std::uint32_t
Reader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint32_t
Reader::count(std::size_t record_bytes)
{
    const std::size_t at = pos_;
    const std::uint32_t n = u32();
    if (n > remaining() / record_bytes)
        fatal("checkpoint: count " + std::to_string(n) + " at offset " +
              std::to_string(at) + " needs at least " +
              std::to_string(record_bytes) + " bytes per record, but " +
              std::to_string(remaining()) + " bytes remain");
    return n;
}

std::uint64_t
Reader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

double
Reader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

Word
Reader::word()
{
    std::uint32_t bits = u32();
    std::uint8_t tag = u8();
    if (tag >= kNumTags)
        fatal("checkpoint: bad word tag " + std::to_string(unsigned(tag)));
    return Word{bits, static_cast<Tag>(tag)};
}

std::uint32_t
HandleMap::ordinalOf(MsgHandle h) const
{
    if (h == kNullMsg)
        return kNullOrdinal;
    auto it = toOrdinal.find(h);
    if (it == toOrdinal.end())
        fatal("checkpoint: live message handle " + std::to_string(h) +
              " not collected");
    return it->second;
}

MsgHandle
HandleMap::handleOf(std::uint32_t ordinal) const
{
    if (ordinal == kNullOrdinal)
        return kNullMsg;
    if (ordinal >= toHandle.size())
        fatal("checkpoint: message ordinal " + std::to_string(ordinal) +
              " out of range (" + std::to_string(toHandle.size()) + " live)");
    return toHandle[ordinal];
}

bool
Snapshot::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = bytes.empty() ||
              std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

bool
Snapshot::readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    bytes.clear();
    std::uint8_t buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

} // namespace ckpt
} // namespace jmsim
