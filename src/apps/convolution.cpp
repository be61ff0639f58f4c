#include "apps/convolution.hpp"

#include <cmath>
#include <stdexcept>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace rat::apps {

void ConvConfig::validate() const {
  if (width == 0 || height == 0)
    throw std::invalid_argument("ConvConfig: empty frame");
  if (kernel_size == 0 || kernel_size % 2 == 0)
    throw std::invalid_argument("ConvConfig: kernel_size must be odd");
  if (kernel_size > width || kernel_size > height)
    throw std::invalid_argument("ConvConfig: kernel larger than frame");
  util::require_positive(bytes_per_pixel, "ConvConfig: bytes_per_pixel <= 0");
}

Image synthetic_frame(const ConvConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  util::Rng rng(seed);
  Image img(cfg.pixels());
  const double w = static_cast<double>(cfg.width);
  const double h = static_cast<double>(cfg.height);
  // A few soft blobs on a diagonal gradient plus mild noise.
  struct Blob {
    double cx, cy, r, amp;
  };
  std::vector<Blob> blobs;
  for (int b = 0; b < 4; ++b)
    blobs.push_back({rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                     rng.uniform(0.05, 0.2), rng.uniform(0.2, 0.5)});
  for (std::size_t y = 0; y < cfg.height; ++y) {
    for (std::size_t x = 0; x < cfg.width; ++x) {
      const double u = static_cast<double>(x) / w;
      const double v = static_cast<double>(y) / h;
      double val = 0.15 + 0.3 * (u + v) / 2.0;
      for (const auto& blob : blobs) {
        const double d2 = (u - blob.cx) * (u - blob.cx) +
                          (v - blob.cy) * (v - blob.cy);
        val += blob.amp * std::exp(-d2 / (blob.r * blob.r));
      }
      val += rng.uniform(-0.02, 0.02);
      img[y * cfg.width + x] = std::clamp(val, 0.0, 0.999);
    }
  }
  return img;
}

std::vector<double> box_kernel(std::size_t k) {
  if (k == 0 || k % 2 == 0)
    throw std::invalid_argument("box_kernel: k must be odd");
  return std::vector<double>(k * k, 1.0 / static_cast<double>(k * k));
}

std::vector<double> gaussian_kernel(std::size_t k) {
  if (k == 0 || k % 2 == 0)
    throw std::invalid_argument("gaussian_kernel: k must be odd");
  const double sigma = static_cast<double>(k) / 5.0;
  const auto c = static_cast<std::ptrdiff_t>(k / 2);
  std::vector<double> out(k * k);
  double sum = 0.0;
  for (std::ptrdiff_t dy = -c; dy <= c; ++dy) {
    for (std::ptrdiff_t dx = -c; dx <= c; ++dx) {
      const double val = std::exp(
          -static_cast<double>(dx * dx + dy * dy) / (2.0 * sigma * sigma));
      out[static_cast<std::size_t>(dy + c) * k +
          static_cast<std::size_t>(dx + c)] = val;
      sum += val;
    }
  }
  for (double& v : out) v /= sum;
  return out;
}

std::vector<double> identity_kernel(std::size_t k) {
  if (k == 0 || k % 2 == 0)
    throw std::invalid_argument("identity_kernel: k must be odd");
  std::vector<double> out(k * k, 0.0);
  out[(k / 2) * k + k / 2] = 1.0;
  return out;
}

namespace {

Image convolve_impl(const Image& image, std::span<const double> kernel,
                    const ConvConfig& cfg, OpCounter* ops) {
  cfg.validate();
  if (image.size() != cfg.pixels())
    throw std::invalid_argument("convolve2d: image size mismatch");
  const std::size_t k = cfg.kernel_size;
  if (kernel.size() != k * k)
    throw std::invalid_argument("convolve2d: kernel size mismatch");
  const auto c = static_cast<std::ptrdiff_t>(k / 2);
  const auto w = static_cast<std::ptrdiff_t>(cfg.width);
  const auto h = static_cast<std::ptrdiff_t>(cfg.height);

  Image out(cfg.pixels(), 0.0);
  for (std::ptrdiff_t y = 0; y < h; ++y) {
    for (std::ptrdiff_t x = 0; x < w; ++x) {
      double acc = 0.0;
      for (std::ptrdiff_t dy = -c; dy <= c; ++dy) {
        const std::ptrdiff_t yy = y + dy;
        for (std::ptrdiff_t dx = -c; dx <= c; ++dx) {
          const std::ptrdiff_t xx = x + dx;
          double pixel = 0.0;  // zero padding outside the frame
          if (yy >= 0 && yy < h && xx >= 0 && xx < w)
            pixel = image[static_cast<std::size_t>(yy * w + xx)];
          acc += pixel * kernel[static_cast<std::size_t>(
                             (dy + c) * static_cast<std::ptrdiff_t>(k) +
                             (dx + c))];
          if (ops) {
            ++ops->muls;
            ++ops->adds;
          }
        }
      }
      out[static_cast<std::size_t>(y * w + x)] = acc;
    }
  }
  return out;
}

}  // namespace

Image convolve2d(const Image& image, std::span<const double> kernel,
                 const ConvConfig& cfg) {
  return convolve_impl(image, kernel, cfg, nullptr);
}

Image convolve2d_counted(const Image& image, std::span<const double> kernel,
                         const ConvConfig& cfg, OpCounter& ops) {
  return convolve_impl(image, kernel, cfg, &ops);
}

std::vector<double> gaussian_factor(std::size_t k) {
  if (k == 0 || k % 2 == 0)
    throw std::invalid_argument("gaussian_factor: k must be odd");
  const double sigma = static_cast<double>(k) / 5.0;
  const auto c = static_cast<std::ptrdiff_t>(k / 2);
  std::vector<double> out(k);
  double sum = 0.0;
  for (std::ptrdiff_t d = -c; d <= c; ++d) {
    const double val =
        std::exp(-static_cast<double>(d * d) / (2.0 * sigma * sigma));
    out[static_cast<std::size_t>(d + c)] = val;
    sum += val;
  }
  for (double& v : out) v /= sum;
  return out;
}

Image convolve2d_separable(const Image& image, std::span<const double> col,
                           std::span<const double> row,
                           const ConvConfig& cfg) {
  cfg.validate();
  if (image.size() != cfg.pixels())
    throw std::invalid_argument("convolve2d_separable: image size mismatch");
  const std::size_t k = cfg.kernel_size;
  if (col.size() != k || row.size() != k)
    throw std::invalid_argument("convolve2d_separable: factor size mismatch");
  const auto c = static_cast<std::ptrdiff_t>(k / 2);
  const auto w = static_cast<std::ptrdiff_t>(cfg.width);
  const auto h = static_cast<std::ptrdiff_t>(cfg.height);

  // Horizontal pass (row factor), then vertical pass (column factor);
  // zero padding in both, which composes to the 2-D zero-padded result
  // for outer-product kernels.
  Image mid(cfg.pixels(), 0.0);
  for (std::ptrdiff_t y = 0; y < h; ++y) {
    for (std::ptrdiff_t x = 0; x < w; ++x) {
      double acc = 0.0;
      for (std::ptrdiff_t dx = -c; dx <= c; ++dx) {
        const std::ptrdiff_t xx = x + dx;
        if (xx < 0 || xx >= w) continue;
        acc += image[static_cast<std::size_t>(y * w + xx)] *
               row[static_cast<std::size_t>(dx + c)];
      }
      mid[static_cast<std::size_t>(y * w + x)] = acc;
    }
  }
  Image out(cfg.pixels(), 0.0);
  for (std::ptrdiff_t y = 0; y < h; ++y) {
    for (std::ptrdiff_t x = 0; x < w; ++x) {
      double acc = 0.0;
      for (std::ptrdiff_t dy = -c; dy <= c; ++dy) {
        const std::ptrdiff_t yy = y + dy;
        if (yy < 0 || yy >= h) continue;
        acc += mid[static_cast<std::size_t>(yy * w + x)] *
               col[static_cast<std::size_t>(dy + c)];
      }
      out[static_cast<std::size_t>(y * w + x)] = acc;
    }
  }
  return out;
}

ConvDesign::ConvDesign(ConvConfig cfg, fx::Format format)
    : cfg_(cfg), format_(format) {
  cfg_.validate();
  format_.validate();
  if (format_.int_bits() < 1)
    throw std::invalid_argument(
        "ConvDesign: format needs >= 1 integer bit (kernel sums can "
        "exceed 1)");
}

rcsim::PipelineSpec ConvDesign::pipeline_spec() const {
  rcsim::PipelineSpec spec;
  spec.name = "conv2d";
  // One pixel per cycle in steady state; the window fills after K/2 rows
  // plus K/2 pixels, and each row restart costs the K/2 edge bubble.
  spec.depth = (cfg_.kernel_size / 2) * cfg_.width + cfg_.kernel_size / 2;
  spec.initiation_interval = 1.0;
  spec.stall_per_item = 0.0;
  spec.instances = 1;
  spec.ops_per_item =
      2.0 * static_cast<double>(cfg_.kernel_size * cfg_.kernel_size);
  return spec;
}

std::uint64_t ConvDesign::cycles_per_iteration() const {
  return rcsim::pipeline_cycles(pipeline_spec(), cfg_.pixels());
}

Image ConvDesign::convolve(const Image& image,
                           std::span<const double> kernel) const {
  return convolve_with_format(image, kernel, format_);
}

Image ConvDesign::convolve_with_format(const Image& image,
                                       std::span<const double> kernel,
                                       fx::Format fmt) const {
  cfg_.validate();
  fmt.validate();
  if (image.size() != cfg_.pixels())
    throw std::invalid_argument("ConvDesign::convolve: image size mismatch");
  const std::size_t k = cfg_.kernel_size;
  if (kernel.size() != k * k)
    throw std::invalid_argument("ConvDesign::convolve: kernel mismatch");

  std::vector<fx::Fixed> kq;
  kq.reserve(kernel.size());
  for (double v : kernel) kq.push_back(fx::Fixed::from_double(v, fmt));
  std::vector<fx::Fixed> iq;
  iq.reserve(image.size());
  for (double v : image) iq.push_back(fx::Fixed::from_double(v, fmt));

  const fx::Format acc_fmt{48, fmt.frac_bits, true};
  const auto rnd = fx::Rounding::kTruncate;
  const auto c = static_cast<std::ptrdiff_t>(k / 2);
  const auto w = static_cast<std::ptrdiff_t>(cfg_.width);
  const auto h = static_cast<std::ptrdiff_t>(cfg_.height);
  const fx::Fixed zero(fmt);

  Image out(cfg_.pixels(), 0.0);
  for (std::ptrdiff_t y = 0; y < h; ++y) {
    for (std::ptrdiff_t x = 0; x < w; ++x) {
      fx::Fixed acc(acc_fmt);
      for (std::ptrdiff_t dy = -c; dy <= c; ++dy) {
        const std::ptrdiff_t yy = y + dy;
        for (std::ptrdiff_t dx = -c; dx <= c; ++dx) {
          const std::ptrdiff_t xx = x + dx;
          const fx::Fixed& pixel =
              (yy >= 0 && yy < h && xx >= 0 && xx < w)
                  ? iq[static_cast<std::size_t>(yy * w + xx)]
                  : zero;
          const fx::Fixed tap = kq[static_cast<std::size_t>(
              (dy + c) * static_cast<std::ptrdiff_t>(k) + (dx + c))];
          // The MAC accumulates the full product (no narrowing inside).
          acc = fx::Fixed::add(acc, fx::Fixed::mul(pixel, tap, acc_fmt, rnd),
                               acc_fmt, rnd);
        }
      }
      out[static_cast<std::size_t>(y * w + x)] = acc.to_double();
    }
  }
  return out;
}

rcsim::IterationIo ConvDesign::io() const {
  rcsim::IterationIo io;
  const auto frame_bytes = static_cast<std::size_t>(
      static_cast<double>(cfg_.pixels()) * cfg_.bytes_per_pixel);
  io.input_chunks_bytes = {frame_bytes};
  io.output_chunks_bytes = {frame_bytes};
  return io;
}

std::vector<core::ResourceItem> ConvDesign::resource_items() const {
  const std::size_t k = cfg_.kernel_size;
  std::vector<core::ResourceItem> items;
  items.push_back(core::ResourceItem{
      "MAC array", static_cast<int>(k * k), format_.total_bits, 0,
      static_cast<std::int64_t>(30 * k * k), 1});
  items.push_back(core::ResourceItem{
      "line buffers", 0, format_.total_bits,
      static_cast<std::int64_t>(
          static_cast<double>((k - 1) * cfg_.width) * cfg_.bytes_per_pixel),
      static_cast<std::int64_t>(40 * (k - 1)), 1});
  items.push_back(core::ResourceItem{
      "frame I/O buffers", 0, format_.total_bits,
      static_cast<std::int64_t>(8192), 500, 1});
  items.push_back(core::ResourceItem{"vendor wrapper", 0,
                                     format_.total_bits, 64 * 1024, 2400,
                                     1});
  return items;
}

core::RatInputs ConvDesign::rat_inputs(
    double tsoft_sec, std::size_t n_iterations,
    const core::CommunicationParams& comm) const {
  core::RatInputs in;
  in.name = "2-D convolution (" + std::to_string(cfg_.kernel_size) + "x" +
            std::to_string(cfg_.kernel_size) + " systolic window)";
  in.dataset.elements_in = cfg_.pixels();
  in.dataset.elements_out = cfg_.pixels();
  in.dataset.bytes_per_element = cfg_.bytes_per_pixel;
  in.comm = comm;
  const double taps =
      static_cast<double>(cfg_.kernel_size * cfg_.kernel_size);
  in.comp.ops_per_element = 2.0 * taps;
  in.comp.throughput_ops_per_cycle = 2.0 * taps * 0.9;  // row-edge derate
  in.comp.fclock_hz = {100e6, 150e6, 200e6};
  in.software.tsoft_sec = tsoft_sec;
  in.software.n_iterations = n_iterations;
  return in;
}

}  // namespace rat::apps
