#include "common/async_writer.h"

#include <algorithm>
#include <cstring>

namespace genealog {

AsyncFileWriter::AsyncFileWriter(std::FILE* file, size_t buffer_cap)
    : file_(file), buffer_cap_(buffer_cap == 0 ? 1 : buffer_cap) {
  active_.reserve(buffer_cap_);
  inflight_.reserve(buffer_cap_);
  writer_ = std::thread([this] { RunWriter(); });
}

AsyncFileWriter::~AsyncFileWriter() {
  Flush();
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  writer_cv_.notify_one();
  writer_.join();
  std::fclose(file_);
}

void AsyncFileWriter::Append(const uint8_t* data, size_t n) {
  while (n > 0) {
    if (active_.size() >= buffer_cap_) SwapBuffers();
    // A record larger than the buffer cap splits across handoffs; order is
    // preserved because handoffs drain strictly in sequence.
    const size_t take = std::min(n, buffer_cap_ - active_.size());
    active_.insert(active_.end(), data, data + take);
    data += take;
    n -= take;
  }
}

void AsyncFileWriter::SwapBuffers() {
  std::unique_lock lock(mu_);
  producer_cv_.wait(lock, [this] { return !inflight_full_; });
  std::swap(active_, inflight_);
  inflight_full_ = true;
  writer_cv_.notify_one();
}

void AsyncFileWriter::Flush() {
  if (!active_.empty()) SwapBuffers();
  std::unique_lock lock(mu_);
  producer_cv_.wait(lock, [this] { return !inflight_full_; });
  // inflight_full_ drops only after the handoff's fwrite returned
  // (RunWriter), so every appended byte is in the stdio stream by now. The
  // tail still in the stdio buffer reaches the disk only here, so a failed
  // fflush is the one report of a failed write for a small file.
  if (std::fflush(file_) != 0) {
    write_error_ = true;
  }
}

bool AsyncFileWriter::write_error() const {
  std::lock_guard lock(mu_);
  return write_error_;
}

void AsyncFileWriter::RunWriter() {
  std::unique_lock lock(mu_);
  for (;;) {
    writer_cv_.wait(lock, [this] { return inflight_full_ || stop_; });
    if (inflight_full_) {
      // The buffer moves to a local and the fwrite runs unlocked, so a
      // stalled disk (hung NFS mount) cannot hold mu_ against write_error()
      // probes. inflight_full_ stays true for the duration, which keeps the
      // producer's bounded-buffering wait intact; once it drops (under mu_
      // again), the write has completed — that ordering is what lets Flush()
      // conclude every byte reached the stdio stream.
      std::vector<uint8_t> batch = std::move(inflight_);
      lock.unlock();
      const bool short_write =
          std::fwrite(batch.data(), 1, batch.size(), file_) != batch.size();
      batch.clear();
      lock.lock();
      if (short_write) write_error_ = true;
      inflight_ = std::move(batch);  // recycle the buffer's capacity
      inflight_full_ = false;
      producer_cv_.notify_all();
      continue;  // drain any pending handoff before honoring stop_
    }
    if (stop_) return;
  }
}

}  // namespace genealog
