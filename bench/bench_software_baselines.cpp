// Host-measured software baselines (the tsoft inputs of Tables 2/5/8).
//
// The paper's baselines ran on a 3.2 GHz Xeon (PDF) and a 2.2 GHz Opteron
// (MD); this harness measures the same algorithms on the current host and
// prints the scaling factor against the paper-era constants the worksheets
// use. The worksheet rows in the other benches keep the paper constants so
// the predicted columns match the publication; this binary documents what
// this machine would supply instead.
#include <chrono>
#include <cstdio>

#include "apps/md.hpp"
#include "apps/pdf1d.hpp"
#include "apps/pdf2d.hpp"
#include "apps/workload.hpp"

namespace {

using namespace rat;

// Each timed call writes its result here, so the call stays observable.
volatile double sink = 0.0;

template <typename F>
double time_once(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

void print_report() {
  std::printf("\n==== tsoft: this host vs the paper-era baselines ====\n");

  // 1-D PDF: full 204,800-sample estimate (400 batches of 512).
  {
    const auto xs =
        apps::gaussian_mixture_1d(204800, apps::default_mixture_1d(), 3004);
    const apps::Pdf1dConfig cfg;
    const double t = time_once([&] {
      sink = apps::estimate_pdf1d_quadratic(xs, cfg).front();
    });
    std::printf("1-D PDF  : host %.3f s   paper (3.2 GHz Xeon) 0.578 s   "
                "ratio %.2fx\n", t, t / 0.578);
  }
  // 2-D PDF: the paper's 158.8 s full run is ~275x the 1-D cost; measure a
  // 1/16 slice (12,800 samples) and scale.
  {
    const auto xs = apps::gaussian_mixture_2d(12800, 3005);
    const apps::Pdf2dConfig cfg;
    const double t = time_once([&] {
      sink = apps::estimate_pdf2d_quadratic(xs, cfg).front();
    });
    const double scaled = t * (204800.0 / 12800.0);
    std::printf("2-D PDF  : host %.1f s (scaled from 1/16 run)   paper "
                "158.8 s   ratio %.2fx\n", scaled, scaled / 158.8);
  }
  // MD: one force evaluation over the full 16,384 molecules.
  {
    auto sys = apps::particle_box(16384, 1.0, 1.0, 3006);
    const apps::MdConfig cfg;
    const double t = time_once([&] {
      sink = apps::compute_forces(sys, cfg).potential_energy;
    });
    std::printf("MD       : host %.3f s   paper (2.2 GHz Opteron) 5.78 s   "
                "ratio %.2fx\n", t, t / 5.78);
  }
  std::printf(
      "\nThe worksheets keep the paper-era tsoft so Tables 3/6/9's predicted\n"
      "columns match the publication; substituting the host values rescales\n"
      "every speedup by the ratio shown (the prediction-error *structure*\n"
      "is unchanged, because tsoft cancels out of the error analysis).\n");
}

}  // namespace

int main() {
  print_report();
  return 0;
}
