/**
 * @file
 * The continuous-operation pod service (DESIGN.md §14): deterministic
 * open-loop arrivals, priority-EDF admission-queue semantics, SLO
 * accounting conservation laws, load shedding under overload, and
 * elastic fault recovery under load.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/service/pod_service.h"
#include "models/fault_presets.h"
#include "test_util.h"

namespace overlap {
namespace {

ArrivalSpec
LightArrivals()
{
    ArrivalSpec arrivals;
    arrivals.seed = 21;
    arrivals.duration_seconds = 0.05;
    arrivals.inference_rate_hz = 1000.0;
    arrivals.training_rate_hz = 400.0;
    arrivals.inference_slo_seconds = 0.05;
    return arrivals;
}

TEST(RequestQueueTest, ArrivalsAreDeterministicSortedAndStamped)
{
    ArrivalSpec spec;
    spec.seed = 5;
    spec.duration_seconds = 1.0;
    spec.inference_rate_hz = 200.0;
    spec.training_rate_hz = 50.0;
    spec.inference_slo_seconds = 0.01;

    auto a = GenerateArrivals(spec);
    auto b = GenerateArrivals(spec);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 0u);
    int64_t inference = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        EXPECT_EQ(a[i].job, b[i].job);
        EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
        EXPECT_LT(a[i].arrival_seconds, spec.duration_seconds);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
        }
        if (a[i].job == JobClass::kInference) {
            ++inference;
            EXPECT_DOUBLE_EQ(
                a[i].deadline_seconds,
                a[i].arrival_seconds + spec.inference_slo_seconds);
        } else {
            // No training SLO configured: deadline stays infinite.
            EXPECT_TRUE(std::isinf(a[i].deadline_seconds));
        }
    }
    // Both classes actually arrive, inference ~4x as often.
    int64_t training = static_cast<int64_t>(a.size()) - inference;
    EXPECT_GT(training, 0);
    EXPECT_GT(inference, 2 * training);

    // A different seed reshuffles the arrival times.
    spec.seed = 6;
    auto c = GenerateArrivals(spec);
    bool any_diff = c.size() != a.size();
    for (size_t i = 0; !any_diff && i < a.size(); ++i) {
        any_diff = a[i].arrival_seconds != c[i].arrival_seconds;
    }
    EXPECT_TRUE(any_diff);
}

TEST(RequestQueueTest, ServiceOrderIsPriorityThenDeadline)
{
    AdmissionQueue queue(8);
    ServiceRequest low_late{/*id=*/0, JobClass::kTraining, 0.0,
                            /*deadline=*/5.0, /*priority=*/0};
    ServiceRequest low_soon{/*id=*/1, JobClass::kTraining, 0.0,
                            /*deadline=*/1.0, /*priority=*/0};
    ServiceRequest high_late{/*id=*/2, JobClass::kInference, 0.0,
                             /*deadline=*/9.0, /*priority=*/1};
    ASSERT_TRUE(queue.Admit(low_late));
    ASSERT_TRUE(queue.Admit(low_soon));
    ASSERT_TRUE(queue.Admit(high_late));

    ServiceRequest popped;
    ASSERT_TRUE(queue.Pop(&popped));
    EXPECT_EQ(popped.id, 2);  // highest priority first, despite deadline
    ASSERT_TRUE(queue.Pop(&popped));
    EXPECT_EQ(popped.id, 1);  // then EDF within the priority band
    ASSERT_TRUE(queue.Pop(&popped));
    EXPECT_EQ(popped.id, 0);
    EXPECT_FALSE(queue.Pop(&popped));
}

TEST(RequestQueueTest, AdmissionBoundShedsAndRequeueBypasses)
{
    AdmissionQueue queue(2);
    ServiceRequest r;
    r.priority = 0;
    r.id = 0;
    EXPECT_TRUE(queue.Admit(r));
    r.id = 1;
    EXPECT_TRUE(queue.Admit(r));
    r.id = 2;
    EXPECT_FALSE(queue.Admit(r));  // bounded: the third arrival sheds
    EXPECT_EQ(queue.depth(), 2);
    queue.Requeue(r);  // recovery re-queue bypasses the bound
    EXPECT_EQ(queue.depth(), 3);
}

TEST(RequestQueueTest, ShedToRemovesLowestPriorityFirst)
{
    AdmissionQueue queue(8);
    for (int64_t i = 0; i < 4; ++i) {
        ServiceRequest r;
        r.id = i;
        r.priority = i % 2;  // ids 1, 3 are high priority
        r.deadline_seconds = static_cast<double>(i);
        ASSERT_TRUE(queue.Admit(r));
    }
    auto shed = queue.ShedTo(2);
    ASSERT_EQ(shed.size(), 2u);
    // The back of the service order is low-priority, latest-deadline.
    EXPECT_EQ(shed[0].priority, 0);
    EXPECT_EQ(shed[1].priority, 0);
    ServiceRequest popped;
    ASSERT_TRUE(queue.Pop(&popped));
    EXPECT_EQ(popped.priority, 1);  // survivors are the high-priority ones
}

TEST(RequestQueueTest, DropExpiredRemovesOnlyPastDeadlines)
{
    AdmissionQueue queue(8);
    for (int64_t i = 0; i < 3; ++i) {
        ServiceRequest r;
        r.id = i;
        r.deadline_seconds = static_cast<double>(i);  // 0, 1, 2
        ASSERT_TRUE(queue.Admit(r));
    }
    auto expired = queue.DropExpired(1.5);
    ASSERT_EQ(expired.size(), 2u);
    EXPECT_EQ(queue.depth(), 1);
    ServiceRequest popped;
    ASSERT_TRUE(queue.Pop(&popped));
    EXPECT_EQ(popped.id, 2);
}

TEST(PodServiceTest, LightLoadCompletesEverythingInSlo)
{
    ServiceOptions options;
    options.arrivals = LightArrivals();
    PodService service(Mesh(4), options);
    auto report = service.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    EXPECT_TRUE(report->inference.Consistent());
    EXPECT_TRUE(report->training.Consistent());
    EXPECT_GT(report->inference.arrivals, 0);
    EXPECT_GT(report->training.arrivals, 0);
    // The pod keeps up: nothing shed, nothing late.
    EXPECT_EQ(report->inference.completed, report->inference.arrivals);
    EXPECT_EQ(report->inference.goodput, report->inference.completed);
    EXPECT_EQ(report->inference.slo_violations, 0);
    EXPECT_EQ(report->training.completed, report->training.arrivals);
    EXPECT_TRUE(report->recoveries.empty());
    EXPECT_FALSE(report->overloaded);
    EXPECT_FALSE(report->degraded_blocking);
    EXPECT_EQ(report->final_mesh.num_devices(), 4);
    EXPECT_EQ(report->pod_steps,
              report->inference.completed + report->training.completed);
    // Latency percentiles came off the registry histograms: ordered,
    // positive, bounded by the observed max.
    EXPECT_GT(report->inference.p50_latency_seconds, 0.0);
    EXPECT_LE(report->inference.p50_latency_seconds,
              report->inference.p99_latency_seconds);
    EXPECT_LE(report->inference.p99_latency_seconds,
              report->inference.p999_latency_seconds);
    EXPECT_LE(report->inference.p999_latency_seconds,
              report->inference.max_latency_seconds);
    EXPECT_GE(report->end_seconds, 0.0);
    EXPECT_FALSE(report->metrics_json.empty());
}

TEST(PodServiceTest, RunIsDeterministic)
{
    ServiceOptions options;
    options.arrivals = LightArrivals();
    auto a = PodService(Mesh(4), options).Run();
    auto b = PodService(Mesh(4), options).Run();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->ToJson(), b->ToJson());
}

TEST(PodServiceTest, OverlappingRunsReportTheirSoloResults)
{
    // Two services on two threads, the shorter started first: each one
    // records into its own registry, so neither run's report may depend
    // on when the other one starts or exits.
    ServiceOptions shorter;
    shorter.arrivals = LightArrivals();
    shorter.arrivals.duration_seconds = 0.5;
    ServiceOptions longer;
    longer.arrivals = LightArrivals();
    longer.arrivals.seed = 22;
    longer.arrivals.duration_seconds = 3.0;

    auto shorter_solo = PodService(Mesh(4), shorter).Run();
    auto longer_solo = PodService(Mesh(4), longer).Run();
    ASSERT_TRUE(shorter_solo.ok()) << shorter_solo.status().ToString();
    ASSERT_TRUE(longer_solo.ok()) << longer_solo.status().ToString();

    StatusOr<ServiceReport> shorter_run = Internal("not run");
    StatusOr<ServiceReport> longer_run = Internal("not run");
    std::thread first(
        [&]() { shorter_run = PodService(Mesh(4), shorter).Run(); });
    std::thread second(
        [&]() { longer_run = PodService(Mesh(4), longer).Run(); });
    first.join();
    second.join();
    ASSERT_TRUE(shorter_run.ok()) << shorter_run.status().ToString();
    ASSERT_TRUE(longer_run.ok()) << longer_run.status().ToString();
    EXPECT_EQ(shorter_run->ToJson(), shorter_solo->ToJson());
    EXPECT_EQ(longer_run->ToJson(), longer_solo->ToJson());
}

TEST(PodServiceTest, OverloadShedsCountedNeverSilent)
{
    ServiceOptions options;
    options.arrivals.seed = 3;
    options.arrivals.duration_seconds = 0.02;
    // Far beyond the pod's service rate, with a tiny queue.
    options.arrivals.inference_rate_hz = 60000.0;
    options.arrivals.inference_slo_seconds = 0.01;
    options.max_queue_depth = 8;
    PodService service(Mesh(4), options);
    auto report = service.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    const ClassStats& s = report->inference;
    EXPECT_TRUE(s.Consistent());
    EXPECT_GT(s.completed, 0);
    // Most of the offered load was shed, and every shed is accounted.
    int64_t shed =
        s.shed_at_admission + s.shed_under_backlog + s.shed_expired;
    EXPECT_GT(shed, s.completed);
    EXPECT_EQ(s.arrivals,
              s.completed + shed + 0);  // nothing vanished
    // The admission bound held (no recovery re-queues here).
    EXPECT_LE(report->peak_queue_depth, options.max_queue_depth);
    EXPECT_TRUE(report->recoveries.empty());
}

TEST(PodServiceTest, ChipDeathUnderLoadRecoversOnSurvivorMesh)
{
    ServiceOptions options;
    options.arrivals = LightArrivals();
    // Tight inference SLO: the recovery outage must show up as counted
    // violations/expiries, not silence.
    options.arrivals.inference_slo_seconds = 2e-3;
    options.checkpoint_interval = 3;
    options.compiler.fault = ChipDeath(/*chip=*/1, /*fail_step=*/5).spec;
    PodService service(Mesh(4), options);
    auto report = service.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ASSERT_EQ(report->recoveries.size(), 1u);
    const RecoveryEvent& recovery = report->recoveries[0];
    EXPECT_GT(recovery.detection_seconds, 0.0);
    EXPECT_GT(recovery.restore_seconds, 0.0);
    EXPECT_GT(recovery.replan_seconds, 0.0);
    EXPECT_GE(recovery.replayed_steps, 0);
    EXPECT_GT(recovery.LatencySeconds(), 0.0);
    EXPECT_NE(recovery.failure_summary.find("chip"), std::string::npos)
        << recovery.failure_summary;

    // The service finished on the shrunk survivor mesh.
    EXPECT_EQ(report->final_mesh.num_devices(), 3);
    EXPECT_TRUE(report->inference.Consistent());
    EXPECT_TRUE(report->training.Consistent());
    EXPECT_GT(report->inference.completed, 0);
    EXPECT_GT(report->training.completed, 0);
    // The outage cost something, and it was counted.
    EXPECT_GT(report->inference.slo_violations +
                  report->inference.shed_expired,
              0);
    EXPECT_FALSE(report->overloaded);
}

/**
 * A survivor compile the guard had to roll back fails the §5.5 gate:
 * the service serves on blocking lowering instead of trusting it.
 */
TEST(PodServiceTest, DistrustedSurvivorCompileDegradesToBlocking)
{
    ServiceOptions options;
    options.arrivals = LightArrivals();
    options.checkpoint_interval = 3;
    options.compiler.extra_passes.push_back(testing_util::CorruptingPass());
    options.compiler.fault = ChipDeath(/*chip=*/1, /*fail_step=*/5).spec;
    auto report = PodService(Mesh(4), options).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ASSERT_EQ(report->recoveries.size(), 1u);
    const RecoveryEvent& recovery = report->recoveries[0];
    EXPECT_TRUE(recovery.degraded_blocking);
    EXPECT_TRUE(recovery.compile.decompose.decisions.empty());
    EXPECT_TRUE(report->degraded_blocking);
    EXPECT_NE(report->ToJson().find("\"degraded_blocking\": true"),
              std::string::npos);
    EXPECT_EQ(report->final_mesh.num_devices(), 3);
    EXPECT_TRUE(report->inference.Consistent());
    EXPECT_TRUE(report->training.Consistent());
    EXPECT_GT(report->training.completed, 0);
    EXPECT_FALSE(report->overloaded);
}

TEST(PodServiceTest, FlakyFabricAddsLatencyNotFailures)
{
    ServiceOptions options;
    options.arrivals = LightArrivals();
    options.compiler.fault = FlakyFabric(/*failure_probability=*/0.05).spec;
    PodService service(Mesh(4), options);
    auto report = service.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    EXPECT_TRUE(report->inference.Consistent());
    EXPECT_TRUE(report->training.Consistent());
    EXPECT_GT(report->inference.completed, 0);
    // Transients are retried below the exhaustion threshold: no
    // recovery episodes, the cost is latency only.
    EXPECT_TRUE(report->recoveries.empty());
    EXPECT_EQ(report->final_mesh.num_devices(), 4);
}

TEST(PodServiceTest, ReportJsonCarriesTheAccountingShape)
{
    ServiceOptions options;
    options.arrivals = LightArrivals();
    options.arrivals.duration_seconds = 0.01;
    PodService service(Mesh(4), options);
    auto report = service.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::string json = report->ToJson();
    for (const char* key :
         {"\"inference\"", "\"training\"", "\"slo_violations\"",
          "\"shed_at_admission\"", "\"p999_latency_s\"", "\"recoveries\"",
          "\"peak_queue_depth\"", "\"overloaded\"", "\"metrics\"",
          "\"final_mesh\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_FALSE(report->ToString().empty());
}

TEST(PodServiceTest, RejectsNonsenseConfiguration)
{
    ServiceOptions options;
    options.arrivals = LightArrivals();
    options.max_queue_depth = 0;
    auto report = PodService(Mesh(4), options).Run();
    EXPECT_FALSE(report.ok());

    options = ServiceOptions();
    options.arrivals = LightArrivals();
    options.shed_watermark = 1.5;
    EXPECT_FALSE(PodService(Mesh(4), options).Run().ok());

    options = ServiceOptions();
    options.arrivals = LightArrivals();
    options.arrivals.duration_seconds = 0.0;
    EXPECT_FALSE(PodService(Mesh(4), options).Run().ok());

    options = ServiceOptions();
    options.arrivals = LightArrivals();
    options.replan_latency_seconds = -1e-3;
    EXPECT_FALSE(PodService(Mesh(4), options).Run().ok());
}

}  // namespace
}  // namespace overlap
