// Fixture: the lazy shape — test first, build the message only on
// failure — plus a literal-only ensure, a toString() outside any
// ensure, and decoys in a string and a comment. Expected: 0 findings.

#include <string>

namespace fx {

struct Status
{
    bool good;
    std::string toString() const { return good ? "ok" : "bad"; }
};

template <typename... Args>
void ensure(bool, Args &&...);
template <typename... Args>
void panic(Args &&...);

std::string
check(const Status &st)
{
    if (!st.good)
        panic("failed: ", st.toString());
    ensure(st.good, "failed without detail");
    const std::string text = st.toString();
    ensure(!text.empty(), "ensure(ok, st.toString()) in a string");
    // ensure(st.good, st.toString()) in a comment.
    return text;
}

} // namespace fx
