// Fixture for tools/src_lines.py --check: three option fields. The
// member function, the static constant and the nested type are not
// fields.
struct KnobOptions
{
    static constexpr int kLimit = 4;
    struct Range
    {
        int lo = 0;
    };

    int rounds = 10;
    double tolerance = 1e-6;
    Range range{};

    bool valid() const { return rounds > 0; }
};
