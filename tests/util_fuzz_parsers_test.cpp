// Seeded fuzz tests for the text parsers that read untrusted input: the
// `--scenario` grammar, JSON documents, and Step-1 cache tables. Valid seed
// inputs are mutated by byte flips, truncations and insertions; every
// mutant must either parse or throw reduce::error — never crash, hang, or
// leak another exception type — and whatever parses must re-serialize to a
// fixpoint. The iteration count and the seeds are fixed, so every run
// checks the same inputs.
#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <vector>

#include "core/resilience.h"
#include "fault/scenario.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"

namespace reduce {
namespace {

constexpr std::size_t k_mutants_per_seed = 3000;

/// Grammar fragments worth splicing in: separators and edge-case literals
/// random bytes would rarely produce.
const std::vector<std::string>& fragments() {
    static const std::vector<std::string> f = {
        ";",     "@",     ":",      "=",   ",",     "{",      "}",    "[",       "]",
        "\"",    "\\",    "\\u",    "-",   "0",     ".",      "e",    "1e999",   "-1e-999",
        "NaN",   "inf",   "null",   "true", "false", "strike", "mode", "rollback", "seed",
        "18446744073709551616", "\\ud800", "\xc3\xa9", std::string(1, '\0'), " "};
    return f;
}

/// One random edit: flip a bit, overwrite a byte, truncate, delete a span,
/// insert a random byte, or splice in a grammar fragment.
std::string mutate(const std::string& seed, rng& gen) {
    std::string s = seed;
    const std::size_t edits = 1 + gen.uniform_index(3);
    for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t pos = s.empty() ? 0 : gen.uniform_index(s.size());
        switch (gen.uniform_index(6)) {
            case 0:
                if (!s.empty()) {
                    s[pos] = static_cast<char>(s[pos] ^ (1u << gen.uniform_index(8)));
                }
                break;
            case 1:
                if (!s.empty()) { s[pos] = static_cast<char>(gen.uniform_index(256)); }
                break;
            case 2: s.resize(pos); break;
            case 3: s.erase(pos, 1 + gen.uniform_index(4)); break;
            case 4: s.insert(pos, 1, static_cast<char>(gen.uniform_index(256))); break;
            default: s.insert(pos, fragments()[gen.uniform_index(fragments().size())]); break;
        }
    }
    return s;
}

/// Runs `attempt` on `input`: returns true when it parsed, false when it
/// threw reduce::error, and fails the test on any other exception.
template <typename F>
bool parses(const std::string& input, F&& attempt) {
    try {
        attempt();
        return true;
    } catch (const error&) {
        return false;
    } catch (const std::exception& other) {
        ADD_FAILURE() << "non-reduce exception '" << other.what() << "' on input: " << input;
        return false;
    }
}

TEST(FuzzParsers, ScenarioGrammarParsesOrThrowsAndRoundTrips) {
    const std::vector<std::string> seeds = {
        "strike@0.6:0.05",
        "strike@0.1:0.05;accrue@0.3:0.02;mode=recover",
        "repair@1.2;accrue@0.5:0.1;mode=restart;rollback=3;seed=42;kinds=stuck-zero",
        "kinds=random-stuck;strike@2:0.25;seed=18446744073709551615",
        "",
    };
    rng gen(0x5ce7a);
    std::size_t parsed = 0;
    for (const std::string& seed : seeds) {
        ASSERT_NO_THROW((void)parse_scenario(seed)) << seed;
        for (std::size_t i = 0; i < k_mutants_per_seed; ++i) {
            const std::string input = mutate(seed, gen);
            scenario_config s;
            if (!parses(input, [&] { s = parse_scenario(input); })) { continue; }
            ++parsed;
            // Canonical form is a fixpoint: it re-parses to the same config
            // and re-serializes to itself.
            const std::string canonical = scenario_to_string(s);
            scenario_config again;
            ASSERT_TRUE(parses(canonical, [&] { again = parse_scenario(canonical); }))
                << "canonical form of '" << input << "' does not parse: " << canonical;
            EXPECT_TRUE(again == s) << input << " -> " << canonical;
            EXPECT_EQ(scenario_to_string(again), canonical) << input;
        }
    }
    // The mutants must also reach the accepting paths, not only the errors.
    EXPECT_GT(parsed, seeds.size() * k_mutants_per_seed / 20);
}

TEST(FuzzParsers, JsonParsesOrThrowsAndDumpIsAFixpoint) {
    const std::vector<std::string> seeds = {
        R"({"a": [1, 2.5, -3e-2, true, false, null], "b": {"c": "d\né\"x"}})",
        R"([{"k": 0.1}, [], {}, "", -0, 1e300])",
        R"({"nested": {"deeper": {"deepest": [[[["x"]]]]}}, "n": 12345678901234567890})",
        R"("just a string with \\ and \/ escapes")",
        "  42  ",
    };
    rng gen(0x1503);
    std::size_t parsed = 0;
    for (const std::string& seed : seeds) {
        ASSERT_NO_THROW((void)json_parse(seed)) << seed;
        for (std::size_t i = 0; i < k_mutants_per_seed; ++i) {
            const std::string input = mutate(seed, gen);
            json_value v;
            if (!parses(input, [&] { v = json_parse(input); })) { continue; }
            ++parsed;
            const std::string dumped = v.dump();
            json_value again;
            ASSERT_TRUE(parses(dumped, [&] { again = json_parse(dumped); }))
                << "dump of '" << input << "' does not parse: " << dumped;
            EXPECT_EQ(again.dump(), dumped) << input;
        }
    }
    EXPECT_GT(parsed, seeds.size() * k_mutants_per_seed / 20);
}

TEST(FuzzParsers, ResilienceTableFromJsonParsesOrThrowsAndRoundTrips) {
    std::vector<resilience_run> runs;
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t rep = 0; rep < 2; ++rep) {
            resilience_run run;
            run.fault_rate = 0.1 * static_cast<double>(r);
            run.repeat = rep;
            run.map_seed = 1000 * r + rep;
            run.masked_weight_fraction = 0.05 * static_cast<double>(r);
            for (std::size_t e = 0; e <= 4; ++e) {
                run.trajectory.push_back(
                    {0.5 * static_cast<double>(e), 0.5 + 0.1 * static_cast<double>(e) -
                                                       0.02 * static_cast<double>(r)});
            }
            runs.push_back(std::move(run));
        }
    }
    const resilience_table table(std::move(runs), 2.0, "fingerprint|v1", 6);
    const std::string seed = table.to_json().dump();
    ASSERT_EQ(resilience_table::from_json(json_parse(seed)).to_json().dump(), seed);

    rng gen(0x7ab1e);
    std::size_t loaded = 0;
    for (std::size_t i = 0; i < 2 * k_mutants_per_seed; ++i) {
        const std::string input = mutate(seed, gen);
        json_value doc;
        if (!parses(input, [&] { doc = json_parse(input); })) { continue; }
        std::string dumped;
        if (!parses(input, [&] { dumped = resilience_table::from_json(doc).to_json().dump(); })) {
            continue;
        }
        ++loaded;
        std::string again;
        ASSERT_TRUE(parses(dumped, [&] {
            again = resilience_table::from_json(json_parse(dumped)).to_json().dump();
        })) << "re-serialized table of '" << input << "' does not load";
        EXPECT_EQ(again, dumped) << input;
    }
    EXPECT_GT(loaded, 0u);
}

TEST(FuzzParsers, InputsTheFuzzerFoundStayRejected) {
    // An overflowing literal parsed to Inf, which dumps as "inf": text no
    // JSON parser reads back, so a cache holding one could not be reloaded.
    EXPECT_THROW((void)json_parse("1e999"), error);
    EXPECT_THROW((void)json_parse(R"({"fault_rate": -2.5e400})"), error);
    EXPECT_EQ(json_parse("1e-999").dump(), "0");  // underflow is finite
    // Settings without an event serialized to "" and lost their values.
    EXPECT_THROW((void)parse_scenario("kinds=random-stuck"), error);
    EXPECT_THROW((void)parse_scenario("mode=restart;seed=3"), error);
    EXPECT_EQ(parse_scenario(";;"), scenario_config{});
}

}  // namespace
}  // namespace reduce
