// Task DAG + executor: the FlexFlow-style iteration graph (§7.1).
//
// Tasks are either timed (fixed duration) or async (hand control to a
// callback that later reports completion -- used for live network phases).
// A task may claim an exclusive *resource* (a pipeline-stage GPU group):
// timed tasks holding a resource serialize on it; among ready tasks on the
// same resource, higher priority wins, which is how the 1F1B schedule is
// expressed (backward tasks outrank forward tasks, so steady-state
// interleaving emerges from the dependency structure alone).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "eventsim/simulator.h"

namespace mixnet::dag {

using TaskId = std::int32_t;

struct Task {
  std::string label;
  /// Fixed duration; ignored when `async` is set.
  TimeNs duration = 0;
  /// Async body: invoked when the task starts; must eventually call done(t).
  std::function<void(std::function<void(TimeNs)> done)> async;
  /// Exclusive resource id, or -1 for none (e.g. network transfers).
  int resource = -1;
  int priority = 0;
  std::vector<TaskId> deps;
};

class TaskGraph {
 public:
  TaskId add(Task t);
  /// Make `task` wait for `dep`. Throws std::out_of_range unless both ids
  /// name tasks already added.
  void add_dep(TaskId task, TaskId dep);
  std::size_t size() const { return tasks_.size(); }
  const Task& task(TaskId id) const { return tasks_[static_cast<std::size_t>(id)]; }
  Task& task(TaskId id) { return tasks_[static_cast<std::size_t>(id)]; }

 private:
  friend class Executor;
  std::vector<Task> tasks_;
};

class Executor {
 public:
  Executor(eventsim::Simulator& sim, TaskGraph& graph);

  /// Start all dependency-free tasks. Completion state advances as the
  /// simulator runs; call `sim.run()` afterwards.
  void start();

  bool all_done() const { return done_count_ == graph_.tasks_.size(); }
  std::size_t tasks_done() const { return done_count_; }
  TimeNs makespan() const { return makespan_; }
  TimeNs task_finish_time(TaskId id) const {
    return finish_[static_cast<std::size_t>(id)];
  }

 private:
  void on_ready(TaskId id, std::vector<int>& touched_resources);
  void dispatch_resource(int resource);
  void start_task(TaskId id);
  void finish_task(TaskId id, TimeNs t);

  eventsim::Simulator& sim_;
  TaskGraph& graph_;
  std::vector<int> unmet_deps_;
  std::vector<std::vector<TaskId>> dependents_;
  std::vector<bool> started_;
  std::vector<TimeNs> finish_;
  std::map<int, bool> resource_busy_now_;
  std::map<int, std::vector<TaskId>> pending_;  // ready, waiting for resource
  std::size_t done_count_ = 0;
  TimeNs makespan_ = 0;
};

}  // namespace mixnet::dag
