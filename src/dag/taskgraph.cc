#include "dag/taskgraph.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mixnet::dag {

TaskId TaskGraph::add(Task t) {
  tasks_.push_back(std::move(t));
  return static_cast<TaskId>(tasks_.size() - 1);
}

void TaskGraph::add_dep(TaskId task, TaskId dep) {
  for (const TaskId id : {task, dep})
    if (id < 0 || static_cast<std::size_t>(id) >= tasks_.size())
      throw std::out_of_range("TaskGraph::add_dep: task " + std::to_string(id) +
                              " outside [0, " + std::to_string(tasks_.size()) +
                              ")");
  tasks_[static_cast<std::size_t>(task)].deps.push_back(dep);
}

Executor::Executor(eventsim::Simulator& sim, TaskGraph& graph)
    : sim_(sim), graph_(graph) {
  const std::size_t n = graph_.tasks_.size();
  unmet_deps_.assign(n, 0);
  dependents_.assign(n, {});
  started_.assign(n, false);
  finish_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    unmet_deps_[i] = static_cast<int>(graph_.tasks_[i].deps.size());
    for (TaskId d : graph_.tasks_[i].deps)
      dependents_[static_cast<std::size_t>(d)].push_back(static_cast<TaskId>(i));
  }
}

void Executor::start() {
  std::vector<int> touched;
  for (std::size_t i = 0; i < graph_.tasks_.size(); ++i)
    if (unmet_deps_[i] == 0) on_ready(static_cast<TaskId>(i), touched);
  for (int r : touched) dispatch_resource(r);
}

void Executor::on_ready(TaskId id, std::vector<int>& touched_resources) {
  // Resource tasks are queued (not started) so that all tasks becoming ready
  // at the same instant compete on priority before any of them claims the
  // resource -- this is what makes 1F1B pick backward over forward work.
  const Task& t = graph_.tasks_[static_cast<std::size_t>(id)];
  if (t.resource < 0) {
    start_task(id);
  } else {
    pending_[t.resource].push_back(id);
    touched_resources.push_back(t.resource);
  }
}

void Executor::dispatch_resource(int resource) {
  if (resource_busy_now_[resource]) return;
  auto it = pending_.find(resource);
  if (it == pending_.end() || it->second.empty()) return;
  auto& q = it->second;
  // Highest priority first; FIFO among equals (stable for determinism).
  std::size_t best = 0;
  for (std::size_t k = 1; k < q.size(); ++k) {
    if (graph_.tasks_[static_cast<std::size_t>(q[k])].priority >
        graph_.tasks_[static_cast<std::size_t>(q[best])].priority)
      best = k;
  }
  const TaskId id = q[best];
  q.erase(q.begin() + static_cast<long>(best));
  start_task(id);
}

void Executor::start_task(TaskId id) {
  const auto i = static_cast<std::size_t>(id);
  if (started_[i]) return;
  Task& t = graph_.tasks_[i];
  if (t.resource >= 0 && resource_busy_now_[t.resource]) {
    pending_[t.resource].push_back(id);
    return;
  }
  started_[i] = true;
  if (t.resource >= 0) resource_busy_now_[t.resource] = true;
  if (t.async) {
    t.async([this, id](TimeNs when) { finish_task(id, when); });
  } else {
    sim_.schedule_after(t.duration, [this, id] { finish_task(id, sim_.now()); });
  }
}

void Executor::finish_task(TaskId id, TimeNs t) {
  const auto i = static_cast<std::size_t>(id);
  finish_[i] = t;
  makespan_ = std::max(makespan_, t);
  ++done_count_;
  Task& task = graph_.tasks_[i];
  if (task.resource >= 0) resource_busy_now_[task.resource] = false;
  std::vector<int> touched;
  for (TaskId w : dependents_[i])
    if (--unmet_deps_[static_cast<std::size_t>(w)] == 0) on_ready(w, touched);
  if (task.resource >= 0) touched.push_back(task.resource);
  for (int r : touched) dispatch_resource(r);
}

}  // namespace mixnet::dag
