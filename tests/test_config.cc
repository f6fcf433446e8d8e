#include <gtest/gtest.h>

#include "core/azul_config.h"
#include "sim/config.h"
#include "sim/sim_stats.h"

namespace azul {
namespace {

TEST(SimConfig, PaperConfigMatchesTableIII)
{
    const SimConfig cfg = AzulPaperConfig();
    EXPECT_EQ(cfg.num_tiles(), 4096);
    EXPECT_DOUBLE_EQ(cfg.clock_ghz, 2.0);
    // 16 TFLOP/s aggregate (1 FMAC = 2 FLOP per PE per cycle).
    EXPECT_DOUBLE_EQ(cfg.PeakGflops(), 16384.0);
    // 432 MB of SRAM ((72+36) KB x 4096).
    EXPECT_NEAR(cfg.TotalSramBytes() / (1024.0 * 1024.0), 432.0, 0.1);
    EXPECT_EQ(cfg.sram_latency, 2);
    EXPECT_EQ(cfg.hop_latency, 1);
    EXPECT_TRUE(cfg.torus);
}

TEST(SimConfig, DefaultIsScaledDown)
{
    const SimConfig cfg = AzulDefaultConfig();
    EXPECT_LT(cfg.num_tiles(), AzulPaperConfig().num_tiles());
    EXPECT_EQ(cfg.pe_model, PeModel::kAzul);
    EXPECT_TRUE(cfg.multithreading);
}

TEST(SimConfig, DalorexOverridesPeOnly)
{
    SimConfig base;
    base.grid_width = 12;
    base.grid_height = 10;
    base.hop_latency = 3;
    const SimConfig dal = DalorexConfig(base);
    EXPECT_EQ(dal.pe_model, PeModel::kScalarCore);
    EXPECT_FALSE(dal.multithreading);
    // Fabric parameters are shared with Azul (same peak, same NoC).
    EXPECT_EQ(dal.grid_width, 12);
    EXPECT_EQ(dal.grid_height, 10);
    EXPECT_EQ(dal.hop_latency, 3);
    EXPECT_DOUBLE_EQ(dal.PeakGflops(), base.PeakGflops());
}

TEST(SimConfig, IdealPeConfig)
{
    const SimConfig ideal = IdealPeConfig(AzulDefaultConfig());
    EXPECT_EQ(ideal.pe_model, PeModel::kIdeal);
}

TEST(SimConfig, GeometryReflectsTopology)
{
    SimConfig cfg;
    cfg.grid_width = 6;
    cfg.grid_height = 4;
    cfg.torus = false;
    const TorusGeometry geom = cfg.geometry();
    EXPECT_EQ(geom.width, 6);
    EXPECT_EQ(geom.height, 4);
    EXPECT_FALSE(geom.wrap);
}

TEST(SimConfig, ToStringMentionsKeyFields)
{
    SimConfig cfg = AzulPaperConfig();
    EXPECT_NE(cfg.ToString().find("64x64"), std::string::npos);
    EXPECT_NE(cfg.ToString().find("azul-pe"), std::string::npos);
    cfg.pe_model = PeModel::kScalarCore;
    cfg.torus = false;
    EXPECT_NE(cfg.ToString().find("scalar-core"), std::string::npos);
    EXPECT_NE(cfg.ToString().find("mesh"), std::string::npos);
}

TEST(SimStatsMore, GflopsArithmetic)
{
    // 1e9 FLOPs in 1e9 cycles at 2 GHz = 2 GFLOP/s.
    EXPECT_DOUBLE_EQ(SimStats::Gflops(1e9, 1'000'000'000ULL, 2.0),
                     2.0);
    EXPECT_EQ(SimStats::Gflops(1e9, 0, 2.0), 0.0);
}

TEST(SimStatsMore, AccumulationAddsEverything)
{
    SimStats a;
    a.cycles = 10;
    a.ops.fmac = 5;
    a.tile_ops = {1, 2};
    SimStats b;
    b.cycles = 7;
    b.ops.fmac = 3;
    b.ops.send = 2;
    b.tile_ops = {10, 20};
    a += b;
    EXPECT_EQ(a.cycles, 17u);
    EXPECT_EQ(a.ops.fmac, 8u);
    EXPECT_EQ(a.ops.send, 2u);
    EXPECT_EQ(a.tile_ops[0], 11u);
    EXPECT_EQ(a.tile_ops[1], 22u);
}

TEST(SimStatsMore, TileImbalance)
{
    SimStats s;
    EXPECT_EQ(s.TileImbalance(), 0.0);
    s.tile_ops = {10, 10, 10, 10};
    EXPECT_DOUBLE_EQ(s.TileImbalance(), 1.0);
    s.tile_ops = {40, 0, 0, 0};
    EXPECT_DOUBLE_EQ(s.TileImbalance(), 4.0);
}

// ---- Fault-spec parsing (docs/ROBUSTNESS.md) --------------------------------

TEST(ParseFaultSpec, FullSpecSetsEveryKnob)
{
    SimConfig cfg;
    ASSERT_TRUE(ParseFaultSpec(
        "rate=1e-5,kinds=sram|noc,seed=7,interval=32,dir=/tmp/ck,"
        "stall=24,retransmit=4,recoveries=3",
        cfg));
    EXPECT_DOUBLE_EQ(cfg.fault_rate, 1e-5);
    EXPECT_EQ(cfg.fault_kinds,
              kFaultSram | kFaultNocDrop | kFaultNocCorrupt);
    EXPECT_EQ(cfg.fault_seed, 7u);
    EXPECT_EQ(cfg.checkpoint_interval, 32);
    EXPECT_EQ(cfg.checkpoint_dir, "/tmp/ck");
    EXPECT_EQ(cfg.fault_stall_cycles, 24);
    EXPECT_EQ(cfg.fault_retransmit_cycles, 4);
    EXPECT_EQ(cfg.max_recoveries, 3);
    EXPECT_TRUE(cfg.faults_enabled());
}

TEST(ParseFaultSpec, KindNamesMapToTheRightMasks)
{
    const struct {
        const char* name;
        std::uint32_t mask;
    } cases[] = {
        {"sram", kFaultSram},
        {"nocdrop", kFaultNocDrop},
        {"noccorrupt", kFaultNocCorrupt},
        {"noc", kFaultNocDrop | kFaultNocCorrupt},
        {"pe", kFaultPeStall},
        {"all", kFaultAll},
        {"sram|pe", kFaultSram | kFaultPeStall},
    };
    for (const auto& tc : cases) {
        SimConfig cfg;
        ASSERT_TRUE(ParseFaultSpec(
            std::string("kinds=") + tc.name, cfg))
            << tc.name;
        EXPECT_EQ(cfg.fault_kinds, tc.mask) << tc.name;
    }
}

TEST(ParseFaultSpec, MalformedSpecsAreRejectedWithoutSideEffects)
{
    const char* bad[] = {
        "rate=2.0",        // out of [0, 1]
        "rate=-1e-5",      // negative
        "rate=abc",        // not a number
        "kinds=gamma-ray", // unknown kind
        "seed=-3",         // negative
        "interval=x",      // not a number
        "stall=0",         // must be >= 1
        "bogus=1",         // unknown key
        "=5",              // empty key
        "rate",            // no '='
    };
    for (const char* spec : bad) {
        SimConfig cfg;
        cfg.fault_rate = 0.25; // sentinel
        EXPECT_FALSE(ParseFaultSpec(spec, cfg)) << spec;
        EXPECT_DOUBLE_EQ(cfg.fault_rate, 0.25)
            << spec << " modified the config on failure";
    }
}

TEST(ParseFaultSpec, RateZeroDisablesInjection)
{
    SimConfig cfg;
    ASSERT_TRUE(ParseFaultSpec("rate=0", cfg));
    EXPECT_FALSE(cfg.faults_enabled());
}

TEST(EngineKindNames, RoundTripThroughParse)
{
    for (const EngineKind kind :
         {EngineKind::kCycle, EngineKind::kFunctional}) {
        EngineKind parsed = EngineKind::kCycle;
        ASSERT_TRUE(ParseEngineKind(EngineKindName(kind), parsed))
            << EngineKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    EXPECT_EQ(EngineKindName(EngineKind::kCycle), "cycle");
    EXPECT_EQ(EngineKindName(EngineKind::kFunctional), "functional");
}

TEST(EngineKindNames, ParseRejectsGarbageWithoutSideEffects)
{
    for (const char* bad : {"", "Cycle", "FUNCTIONAL", "func",
                            "cycle ", "warp-drive"}) {
        EngineKind out = EngineKind::kFunctional; // sentinel
        EXPECT_FALSE(ParseEngineKind(bad, out)) << "'" << bad << "'";
        EXPECT_EQ(out, EngineKind::kFunctional)
            << "'" << bad << "' modified the output on failure";
    }
}

TEST(SolverSpecNames, SolverKindRoundTripsThroughParse)
{
    for (const SolverKind kind :
         {SolverKind::kPcg, SolverKind::kJacobi, SolverKind::kBiCgStab,
          SolverKind::kGmres}) {
        SolverKind parsed = SolverKind::kPcg;
        ASSERT_TRUE(ParseSolverKind(SolverKindName(kind), parsed))
            << SolverKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    SolverKind out = SolverKind::kGmres; // sentinel
    EXPECT_FALSE(ParseSolverKind("conjugate-gradient", out));
    EXPECT_EQ(out, SolverKind::kGmres);
}

TEST(SolverSpecNames, PreconditionerKindRoundTripsThroughParse)
{
    for (const PreconditionerKind kind :
         {PreconditionerKind::kIdentity, PreconditionerKind::kJacobi,
          PreconditionerKind::kSymmetricGaussSeidel,
          PreconditionerKind::kSsor,
          PreconditionerKind::kIncompleteCholesky}) {
        PreconditionerKind parsed = PreconditionerKind::kIdentity;
        ASSERT_TRUE(
            ParsePreconditionerKind(PreconditionerKindName(kind),
                                    parsed))
            << PreconditionerKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    PreconditionerKind out = PreconditionerKind::kSsor; // sentinel
    EXPECT_FALSE(ParsePreconditionerKind("ilu", out));
    EXPECT_EQ(out, PreconditionerKind::kSsor);
}

TEST(SolverSpecNames, PrecisionModeRoundTripsThroughParse)
{
    for (const PrecisionMode mode :
         {PrecisionMode::kFp64, PrecisionMode::kFp32}) {
        PrecisionMode parsed = PrecisionMode::kFp64;
        ASSERT_TRUE(ParsePrecisionMode(PrecisionModeName(mode), parsed))
            << PrecisionModeName(mode);
        EXPECT_EQ(parsed, mode);
    }
    PrecisionMode out = PrecisionMode::kFp32; // sentinel
    EXPECT_FALSE(ParsePrecisionMode("fp16", out));
    EXPECT_EQ(out, PrecisionMode::kFp32);
}

TEST(SolverSpec, ValidateAcceptsTheDefaultAndCatchesBadFields)
{
    SolverSpec spec;
    EXPECT_TRUE(spec.Validate().ok());

    spec = SolverSpec();
    spec.tol = -1e-9;
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

    spec = SolverSpec();
    spec.max_iters = -1;
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

    // Weighted Jacobi is a stationary method: no preconditioner, and
    // the damping weight must stay in (0, 1].
    spec = SolverSpec();
    spec.method = SolverKind::kJacobi;
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
    spec.precond = PreconditionerKind::kIdentity;
    EXPECT_TRUE(spec.Validate().ok());
    spec.jacobi_omega = 1.5;
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

    spec = SolverSpec();
    spec.method = SolverKind::kGmres;
    spec.restart = 0;
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

    spec = SolverSpec();
    spec.precond = PreconditionerKind::kSsor;
    spec.ssor_omega = 2.0; // open interval: (0, 2)
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
    spec.ssor_omega = 1.2;
    EXPECT_TRUE(spec.Validate().ok());
}

TEST(SolverSpec, ToStringMentionsTheResolvedShape)
{
    SolverSpec spec;
    spec.method = SolverKind::kGmres;
    spec.restart = 25;
    spec.precision = PrecisionMode::kFp32;
    const std::string text = spec.ToString();
    EXPECT_NE(text.find("method=gmres"), std::string::npos) << text;
    EXPECT_NE(text.find("restart=25"), std::string::npos) << text;
    EXPECT_NE(text.find("precision=fp32"), std::string::npos) << text;
}

TEST(ApplyFaultEnv, ReadsAzulFaultsAndIgnoresGarbage)
{
    {
        SimConfig cfg;
        ::setenv("AZUL_FAULTS", "rate=3e-4,kinds=pe", 1);
        ApplyFaultEnv(cfg);
        EXPECT_DOUBLE_EQ(cfg.fault_rate, 3e-4);
        EXPECT_EQ(cfg.fault_kinds, kFaultPeStall);
    }
    {
        SimConfig cfg;
        ::setenv("AZUL_FAULTS", "rate=banana", 1);
        ApplyFaultEnv(cfg); // malformed: config untouched
        EXPECT_DOUBLE_EQ(cfg.fault_rate, 0.0);
    }
    {
        SimConfig cfg;
        ::unsetenv("AZUL_FAULTS");
        ApplyFaultEnv(cfg); // unset: no-op
        EXPECT_DOUBLE_EQ(cfg.fault_rate, 0.0);
    }
}

TEST(WarmStartOptions, DefaultsAndToString)
{
    AzulOptions opts;
    EXPECT_FALSE(opts.warm_start);
    EXPECT_TRUE(opts.x0.empty());
    EXPECT_GE(opts.drift_traffic_threshold, 1.0);
    // ToString only mentions warm start when it is on.
    EXPECT_EQ(opts.ToString().find("warm-start"), std::string::npos);
    opts.warm_start = true;
    opts.drift_traffic_threshold = 1.75;
    const std::string s = opts.ToString();
    EXPECT_NE(s.find("warm-start"), std::string::npos);
    EXPECT_NE(s.find("1.75"), std::string::npos);
}

TEST(ApplyEnvOverridesWarm, ReadsAzulWarmStartAndIgnoresGarbage)
{
    {
        AzulOptions opts;
        ::setenv("AZUL_WARM_START", "1", 1);
        ApplyEnvOverrides(opts);
        EXPECT_TRUE(opts.warm_start);
        ::setenv("AZUL_WARM_START", "true", 1);
        opts = AzulOptions{};
        ApplyEnvOverrides(opts);
        EXPECT_TRUE(opts.warm_start);
        ::setenv("AZUL_WARM_START", "on", 1);
        opts = AzulOptions{};
        ApplyEnvOverrides(opts);
        EXPECT_TRUE(opts.warm_start);
    }
    {
        AzulOptions opts;
        opts.warm_start = true;
        ::setenv("AZUL_WARM_START", "0", 1);
        ApplyEnvOverrides(opts); // explicit off wins over the field
        EXPECT_FALSE(opts.warm_start);
        opts.warm_start = true;
        ::setenv("AZUL_WARM_START", "off", 1);
        ApplyEnvOverrides(opts);
        EXPECT_FALSE(opts.warm_start);
    }
    {
        AzulOptions opts;
        ::setenv("AZUL_WARM_START", "sideways", 1);
        ApplyEnvOverrides(opts); // unrecognized: default stands
        EXPECT_FALSE(opts.warm_start);
    }
    {
        AzulOptions opts;
        opts.warm_start = true;
        ::unsetenv("AZUL_WARM_START");
        ApplyEnvOverrides(opts); // unset: no-op
        EXPECT_TRUE(opts.warm_start);
    }
}

} // namespace
} // namespace azul
