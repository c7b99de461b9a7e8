// Fixture: the key dispatch lives in set(), which parse() calls line by
// line; a key set() accepts but hash() never covers is the same bug as in
// spec_hash_bad.cpp (never compiled — lint input only). Line asserted in
// lint_test.cpp.
#include <cstdint>
#include <string>

struct CampaignSpec {
    std::size_t measurements = 30;
    std::size_t warmup = 1; // set below, missing from hash(): the bug
    static CampaignSpec parse(const std::string& text);
    bool set(const std::string& key, const std::string& value);
    std::uint64_t hash() const;
};

CampaignSpec CampaignSpec::parse(const std::string& text) {
    CampaignSpec spec;
    (void)spec.set(text, text); // no key comparisons of its own
    return spec;
}

bool CampaignSpec::set(const std::string& key, const std::string& value) {
    if (key == "measurements") {               // line 23: hashed, fine
        measurements = value.size();
    } else if (key == "warmup") {              // line 25: NOT hashed -> bug
        warmup = value.size();
    } else {
        return false;
    }
    return true;
}

std::uint64_t CampaignSpec::hash() const {
    std::string plan = "measurements=" + std::to_string(measurements);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : plan) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}
