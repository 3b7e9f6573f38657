// Fixture: failure messages built on every call, the check passing or
// not. Expected: 2 PERF-eager-msg findings (one per ensure call, the
// second spanning two lines).

#include <string>

namespace fx {

struct Status
{
    bool good;
    std::string toString() const { return good ? "ok" : "bad"; }
};

template <typename... Args>
void ensure(bool, Args &&...);

void
check(const Status &st)
{
    ensure(st.good, "failed: ", st.toString());
    ensure(st.good, "failed twice: ",
           st.toString(), " and ", st.toString());
}

} // namespace fx
